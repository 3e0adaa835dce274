open Emsc_arith
open Emsc_ir
open Emsc_codegen

type counters = {
  mutable flops : float;
  mutable g_ld : float;
  mutable g_st : float;
  mutable s_ld : float;
  mutable s_st : float;
  mutable syncs : float;
  mutable fences : float;
}

let fresh () =
  { flops = 0.; g_ld = 0.; g_st = 0.; s_ld = 0.; s_st = 0.; syncs = 0.;
    fences = 0. }

let copy_counters c =
  { flops = c.flops; g_ld = c.g_ld; g_st = c.g_st; s_ld = c.s_ld;
    s_st = c.s_st; syncs = c.syncs; fences = c.fences }

let sub_counters a b =
  { flops = a.flops -. b.flops; g_ld = a.g_ld -. b.g_ld;
    g_st = a.g_st -. b.g_st; s_ld = a.s_ld -. b.s_ld;
    s_st = a.s_st -. b.s_st; syncs = a.syncs -. b.syncs;
    fences = a.fences -. b.fences }

let add_scaled dst d k =
  dst.flops <- dst.flops +. (d.flops *. k);
  dst.g_ld <- dst.g_ld +. (d.g_ld *. k);
  dst.g_st <- dst.g_st +. (d.g_st *. k);
  dst.s_ld <- dst.s_ld +. (d.s_ld *. k);
  dst.s_st <- dst.s_st +. (d.s_st *. k);
  dst.syncs <- dst.syncs +. (d.syncs *. k);
  dst.fences <- dst.fences +. (d.fences *. k)

let scale_counters c k =
  { flops = c.flops *. k; g_ld = c.g_ld *. k; g_st = c.g_st *. k;
    s_ld = c.s_ld *. k; s_st = c.s_st *. k; syncs = c.syncs *. k;
    fences = c.fences *. k }

let add_into src dst = add_scaled dst src 1.0

let total_global c = c.g_ld +. c.g_st
let total_smem c = c.s_ld +. c.s_st

let counters_json c =
  Emsc_obs.Json.Obj
    [ ("flops", Emsc_obs.Json.Float c.flops);
      ("global_loads", Emsc_obs.Json.Float c.g_ld);
      ("global_stores", Emsc_obs.Json.Float c.g_st);
      ("smem_loads", Emsc_obs.Json.Float c.s_ld);
      ("smem_stores", Emsc_obs.Json.Float c.s_st);
      ("syncs", Emsc_obs.Json.Float c.syncs);
      ("fences", Emsc_obs.Json.Float c.fences) ]

type launch = {
  grid : float;
  per_block : counters;
  repeat : float;  (* dynamic occurrences of this launch (sampling) *)
}

type result = {
  totals : counters;
  launches : launch list;
}

type mode = Full | Sampled of int

let rec expr_flops = function
  | Prog.Eref _ | Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _ -> 0
  | Prog.Eneg e | Prog.Eabs e -> 1 + expr_flops e
  | Prog.Eadd (a, b) | Prog.Esub (a, b) | Prog.Emul (a, b)
  | Prog.Ediv (a, b) | Prog.Emin (a, b) | Prog.Emax (a, b) ->
    1 + expr_flops a + expr_flops b

(* staged-movement accounting local to one execution context: copies
   are tallied here and flushed — or reduced across blocks — into the
   registry once per run, from the main domain *)
type dma_tally = {
  mutable dma_copies : float;
  dma_in : (string, float ref) Hashtbl.t;
  dma_out : (string, float ref) Hashtbl.t;
}

let fresh_tally () =
  { dma_copies = 0.; dma_in = Hashtbl.create 4; dma_out = Hashtbl.create 4 }

type block_dma = {
  copies : float;
  moved_in : (string * float) list;
  moved_out : (string * float) list;
}

let bump_words tbl name words =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. words
  | None -> Hashtbl.replace tbl name (ref words)

let tally_add d (b : block_dma) =
  d.dma_copies <- d.dma_copies +. b.copies;
  List.iter (fun (name, words) -> bump_words d.dma_in name words) b.moved_in;
  List.iter (fun (name, words) -> bump_words d.dma_out name words) b.moved_out

(* whole-run movement, totals and scratchpad occupancy, recorded once
   per run: O(1) regardless of program size, and one boolean when
   disabled *)
let record_run_metrics c dma ~occupancy =
  if Emsc_obs.Prof.enabled () then begin
    let open Emsc_obs in
    if dma.dma_copies > 0.0 then begin
      Prof.add "exec.copies" dma.dma_copies;
      let flush name tbl =
        Hashtbl.iter (fun buffer words ->
          if !words > 0.0 then
            Prof.add ~labels:[ ("buffer", buffer) ] name !words)
          tbl
      in
      flush "exec.move_in_words" dma.dma_in;
      flush "exec.move_out_words" dma.dma_out
    end;
    Prof.add "exec.runs" 1.0;
    Prof.add "exec.flops" c.flops;
    Prof.add "exec.global_loads" c.g_ld;
    Prof.add "exec.global_stores" c.g_st;
    Prof.add "exec.smem_loads" c.s_ld;
    Prof.add "exec.smem_stores" c.s_st;
    Prof.add "exec.syncs" c.syncs;
    Prof.add "exec.fences" c.fences;
    let occ = occupancy () in
    List.iter (fun (name, cells) ->
      Prof.gauge_max ~labels:[ ("buffer", name) ]
        "exec.scratchpad_occupancy_words" (float_of_int cells))
      occ;
    if occ <> [] then
      Prof.gauge_max "exec.scratchpad_occupancy_total_words"
        (float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 occ))
  end

let prof_launch delta =
  Emsc_obs.Prof.add "launch.flops" delta.flops;
  Emsc_obs.Prof.add "launch.global" (total_global delta);
  Emsc_obs.Prof.add "launch.smem" (total_smem delta);
  Emsc_obs.Prof.add "launch.syncs" delta.syncs

(* ------------------------------------------------------------------ *)
(* Checked native-int arithmetic: index and bound values never wrap   *)

let overflow () = failwith "Exec: integer overflow in index arithmetic"

let[@inline] add_ck a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then overflow () else s

let[@inline] sub_ck a b =
  let d = a - b in
  if (a lxor b) land (a lxor d) < 0 then overflow () else d

(* [c * x] for a constant [c] known when the code is lowered *)
let mul_by c =
  if c = 1 then fun x -> x
  else if c = 0 then fun _ -> 0
  else begin
    let lim = max_int / abs c in
    fun x -> if x > lim || x < -lim then overflow () else c * x
  end

(* [acc + c * x] for a nonzero coefficient [c] known when the code is
   lowered, with [lim = max_int / abs c]: a unit coefficient adds or
   subtracts [x] directly.  It fails exactly when [acc + mul_by c x]
   does. *)
let[@inline] add_term acc c lim x =
  if c = 1 then add_ck acc x
  else if c = -1 then if x = min_int then overflow () else sub_ck acc x
  else if x > lim || x < -lim then overflow ()
  else add_ck acc (c * x)

let fdiv x d =
  let q = x / d in
  if x mod d <> 0 && (x < 0) <> (d < 0) then q - 1 else q

let cdiv x d =
  let q = x / d in
  if x mod d <> 0 && (x < 0) = (d < 0) then q + 1 else q

let int_of_const z =
  match Zint.to_int_opt z with Some n -> n | None -> overflow ()

(* ------------------------------------------------------------------ *)
(* The per-block frame                                                *)

(* A buffer name resolved against one memory view.  Names reached
   through an [Ast.ref_expr] are local when the view declares them;
   the accesses a statement keeps in global memory are always global. *)
type buf =
  | Local of Memory.local
  | Global of Memory.global
  | Missing of string

type ctx = {
  slots : int array;  (* loop variables, bound names, iteration values *)
  fv : float array;  (* one cell per float expression node *)
  idx : int array;
      (* the indices of the access in flight, for [hook], a local
         store that grows its window, and accesses of rank other than 2 *)
  bufs : buf array;
  c : counters;
  mode : mode;
  hook : (string -> int -> [ `Ld | `St ] -> unit) option;  (* Full only *)
  collect_dma : bool;
  mutable copies : float;
  dma_in : float array;  (* words moved in, per buffer *)
  dma_out : float array;
  mutable in_launch : bool;
  mutable launches : launch list;
}

(* ------------------------------------------------------------------ *)
(* Sessions and lowering                                              *)

type stmt_info = {
  stmt : Prog.stmt;
  flops : float;
  rewrites : (Prog.access * Ast.ref_expr option) list;
      (* every access of the body with its local-buffer redirection *)
}

type session = {
  s_prog : Prog.t;
  s_stmts : (int, stmt_info) Hashtbl.t;
  s_param_env : string -> Zint.t;
}

let rec expr_accesses acc = function
  | Prog.Eref a -> a :: acc
  | Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _ -> acc
  | Prog.Eneg e | Prog.Eabs e -> expr_accesses acc e
  | Prog.Eadd (a, b) | Prog.Esub (a, b) | Prog.Emul (a, b)
  | Prog.Ediv (a, b) | Prog.Emin (a, b) | Prog.Emax (a, b) ->
    expr_accesses (expr_accesses acc a) b

(* [local_ref] is asked once per access per session, here; lowering
   reads the answers. *)
let session ~prog ?local_ref ~param_env () =
  let stmts = Hashtbl.create 8 in
  List.iter (fun (s : Prog.stmt) ->
    let flops, accesses =
      match s.Prog.body with
      | None -> (0, [])
      | Some (lhs, rhs) -> (1 + expr_flops rhs, expr_accesses [ lhs ] rhs)
    in
    let rewrites =
      List.map (fun a ->
        (a, match local_ref with Some f -> f s a | None -> None))
        accesses
    in
    Hashtbl.replace stmts s.Prog.id
      { stmt = s; flops = float_of_int flops; rewrites })
    prog.Prog.stmts;
  { s_prog = prog; s_stmts = stmts; s_param_env = param_env }

type code = {
  run : ctx -> unit;
  nslots : int;
  ncells : int;
  free : (string * int) array;
      (* names read where no loop of the code binds them: set from the
         block's bindings, else from the parameter valuation *)
  buf_keys : (string * bool) array;  (* name, may be local *)
  max_rank : int;
  param_env : string -> Zint.t;
}

(* lowering state of one code *)
type lw = {
  sess : session;
  names : (string, int) Hashtbl.t;
  mutable nslots : int;
  mutable ncells : int;
  mutable free : (string * int) list;
  mutable bound : string list;  (* variables of the enclosing loops *)
  bufs : (string * bool, int) Hashtbl.t;
  mutable nbufs : int;
  mutable max_rank : int;
  mutable lowered : int;
}

let fresh_slot lw =
  let k = lw.nslots in
  lw.nslots <- k + 1;
  k

let fresh_cell lw =
  let c = lw.ncells in
  lw.ncells <- c + 1;
  c

(* the slot of a variable a loop binds *)
let var_slot lw name =
  match Hashtbl.find_opt lw.names name with
  | Some k -> k
  | None ->
    let k = fresh_slot lw in
    Hashtbl.replace lw.names name k;
    k

(* the slot of a variable read here: free unless an enclosing loop of
   the code binds it *)
let slot lw name =
  let k = var_slot lw name in
  if (not (List.mem name lw.bound)) && not (List.mem_assoc name lw.free) then
    lw.free <- (name, k) :: lw.free;
  k

let buf_slot lw name ~may_be_local =
  let key = (name, may_be_local) in
  match Hashtbl.find_opt lw.bufs key with
  | Some b -> b
  | None ->
    let b = lw.nbufs in
    lw.nbufs <- b + 1;
    Hashtbl.replace lw.bufs key b;
    b

(* An affine form [const + sum coef * slot], summed exactly. *)
type affine = { const : Zint.t; terms : (int * Zint.t) list }

let aff_const c = { const = c; terms = [] }

let aff_add a b =
  let terms =
    List.fold_left (fun acc (k, c) ->
      match List.assoc_opt k acc with
      | Some c0 -> (k, Zint.add c0 c) :: List.remove_assoc k acc
      | None -> (k, c) :: acc)
      a.terms b.terms
  in
  { const = Zint.add a.const b.const;
    terms = List.filter (fun (_, c) -> not (Zint.is_zero c)) terms }

let aff_scale z a =
  if Zint.is_zero z then aff_const Zint.zero
  else
    { const = Zint.mul z a.const;
      terms = List.map (fun (k, c) -> (k, Zint.mul z c)) a.terms }

let rec affine_of lw (e : Ast.aexpr) =
  match e with
  | Ast.Var n -> Some { const = Zint.zero; terms = [ (slot lw n, Zint.one) ] }
  | Ast.Const c -> Some (aff_const c)
  | Ast.Add (a, b) -> (
    match (affine_of lw a, affine_of lw b) with
    | Some x, Some y -> Some (aff_add x y)
    | _ -> None)
  | Ast.Sub (a, b) -> (
    match (affine_of lw a, affine_of lw b) with
    | Some x, Some y -> Some (aff_add x (aff_scale Zint.minus_one y))
    | _ -> None)
  | Ast.Mul (c, a) -> Option.map (aff_scale c) (affine_of lw a)
  | Ast.Fdiv _ | Ast.Cdiv _ | Ast.Min _ | Ast.Max _ -> None

(* the integer dot product of an affine form over the frame, summed
   in the order of the sorted terms *)
let affine_fn (a : affine) : int array -> int =
  let c0 = int_of_const a.const in
  (* [aff_add] drops zero coefficients and [aff_scale] makes none, so
     every [c] is nonzero *)
  let term (k, c) =
    let c = int_of_const c in
    (k, c, max_int / abs c)
  in
  match List.map term (List.sort compare a.terms) with
  | [] -> fun _ -> c0
  | [ (k, 1, _) ] when c0 = 0 -> fun s -> s.(k)
  | [ (k, 1, _) ] -> fun s -> add_ck s.(k) c0
  | [ (k, c, l) ] -> fun s -> add_term c0 c l s.(k)
  | [ (k1, c1, l1); (k2, c2, l2) ] ->
    fun s -> add_ck (add_term (add_term 0 c1 l1 s.(k1)) c2 l2 s.(k2)) c0
  | [ (k1, c1, l1); (k2, c2, l2); (k3, c3, l3) ] ->
    fun s ->
      add_term (add_term (add_term c0 c1 l1 s.(k1)) c2 l2 s.(k2)) c3 l3 s.(k3)
  | [ (k1, c1, l1); (k2, c2, l2); (k3, c3, l3); (k4, c4, l4) ] ->
    fun s ->
      let acc = add_term (add_term c0 c1 l1 s.(k1)) c2 l2 s.(k2) in
      add_term (add_term acc c3 l3 s.(k3)) c4 l4 s.(k4)
  | terms ->
    let terms = Array.of_list terms in
    fun s ->
      let acc = ref c0 in
      for i = 0 to Array.length terms - 1 do
        let k, c, l = terms.(i) in
        acc := add_term !acc c l s.(k)
      done;
      !acc

let rec lower_aexpr lw (e : Ast.aexpr) : int array -> int =
  match affine_of lw e with
  | Some a -> affine_fn a
  | None -> (
    match e with
    | Ast.Var _ | Ast.Const _ -> assert false
    | Ast.Add (a, b) ->
      let fa = lower_aexpr lw a and fb = lower_aexpr lw b in
      fun s -> add_ck (fa s) (fb s)
    | Ast.Sub (a, b) ->
      let fa = lower_aexpr lw a and fb = lower_aexpr lw b in
      fun s -> sub_ck (fa s) (fb s)
    | Ast.Mul (c, a) ->
      let fa = lower_aexpr lw a and m = mul_by (int_of_const c) in
      fun s -> m (fa s)
    | Ast.Fdiv (a, d) ->
      let fa = lower_aexpr lw a and d = int_of_const d in
      fun s -> fdiv (fa s) d
    | Ast.Cdiv (a, d) ->
      let fa = lower_aexpr lw a and d = int_of_const d in
      fun s -> cdiv (fa s) d
    | Ast.Min [] | Ast.Max [] -> fun _ -> invalid_arg "Exec: empty min/max"
    | Ast.Min (e0 :: es) -> extreme lw min e0 es
    | Ast.Max (e0 :: es) -> extreme lw max e0 es)

and extreme lw pick e0 es =
  let f0 = lower_aexpr lw e0 in
  let fs = Array.of_list (List.map (lower_aexpr lw) es) in
  fun s ->
    let m = ref (f0 s) in
    for i = 0 to Array.length fs - 1 do
      m := pick !m (fs.(i) s)
    done;
    !m

(* Compute the indices of an access into [ctx.idx], left to right. *)
let fill_indices ctx (fs : (int array -> int) array) =
  let s = ctx.slots in
  for k = 0 to Array.length fs - 1 do
    ctx.idx.(k) <- fs.(k) s
  done

let unknown_global name = invalid_arg ("Memory: unknown global array " ^ name)

(* [ctx.hook] on a global access whose [n] indices are in [ctx.idx] *)
let on_global ctx name g n kind =
  match ctx.hook with
  | Some f -> f name (Memory.global_address g ctx.idx n) kind
  | None -> ()

let on_global2 ctx name g i0 i1 kind =
  match ctx.hook with
  | Some f ->
    ctx.idx.(0) <- i0;
    ctx.idx.(1) <- i1;
    f name (Memory.global_address g ctx.idx 2) kind
  | None -> ()

(* One load of an array cell into the float cell [dst].
   [may_be_local]: an [Ast.ref_expr], local when the view declares its
   name.  Rank 2 passes its indices to [Memory] directly. *)
let lower_load lw name ~may_be_local fs ~dst : ctx -> unit =
  let b = buf_slot lw name ~may_be_local in
  let n = Array.length fs in
  lw.max_rank <- max lw.max_rank n;
  match fs with
  | [| f0; f1 |] -> (
    fun ctx ->
      let s = ctx.slots in
      let i0 = f0 s in
      let i1 = f1 s in
      match ctx.bufs.(b) with
      | Local l ->
        ctx.c.s_ld <- ctx.c.s_ld +. 1.0;
        Memory.local_load2 l i0 i1 ctx.fv dst
      | Global g ->
        ctx.c.g_ld <- ctx.c.g_ld +. 1.0;
        on_global2 ctx name g i0 i1 `Ld;
        Memory.global_load2 g i0 i1 ctx.fv dst
      | Missing name -> unknown_global name)
  | _ -> (
    fun ctx ->
      fill_indices ctx fs;
      match ctx.bufs.(b) with
      | Local l ->
        ctx.c.s_ld <- ctx.c.s_ld +. 1.0;
        Memory.local_load l ctx.idx n ctx.fv dst
      | Global g ->
        ctx.c.g_ld <- ctx.c.g_ld +. 1.0;
        on_global ctx name g n `Ld;
        Memory.global_load g ctx.idx n ctx.fv dst
      | Missing name -> unknown_global name)

(* One store of the float cell [src], after [value] has written it. *)
let lower_store lw name ~may_be_local fs (src, value) : ctx -> unit =
  let b = buf_slot lw name ~may_be_local in
  let n = Array.length fs in
  lw.max_rank <- max lw.max_rank n;
  match fs with
  | [| f0; f1 |] -> (
    fun ctx ->
      value ctx;
      let s = ctx.slots in
      let i0 = f0 s in
      let i1 = f1 s in
      match ctx.bufs.(b) with
      | Local l ->
        ctx.c.s_st <- ctx.c.s_st +. 1.0;
        Memory.local_store2 l ctx.idx i0 i1 ctx.fv src
      | Global g ->
        ctx.c.g_st <- ctx.c.g_st +. 1.0;
        on_global2 ctx name g i0 i1 `St;
        Memory.global_store2 g i0 i1 ctx.fv src
      | Missing name -> unknown_global name)
  | _ -> (
    fun ctx ->
      value ctx;
      fill_indices ctx fs;
      match ctx.bufs.(b) with
      | Local l ->
        ctx.c.s_st <- ctx.c.s_st +. 1.0;
        Memory.local_store l ctx.idx n ctx.fv src
      | Global g ->
        ctx.c.g_st <- ctx.c.g_st +. 1.0;
        on_global ctx name g n `St;
        Memory.global_store g ctx.idx n ctx.fv src
      | Missing name -> unknown_global name)

let ref_indices lw (r : Ast.ref_expr) = Array.map (lower_aexpr lw) r.Ast.indices

(* The value of iteration argument [i] of a statement instance: affine
   arguments fold into the access functions that read them; any other
   is computed once per instance into its own slot. *)
type iter_val = Aff of affine | Slot of int

(* An access-map row under the instance's iteration values: the row's
   iterator part composed with the arguments, its parameter part read
   from the parameters' slots (tile origins are loop variables there). *)
let access_row lw (s : Prog.stmt) iters (row : Emsc_linalg.Vec.t) =
  let np = Prog.nparams lw.sess.s_prog in
  let depth = s.Prog.depth in
  let acc = ref (aff_const row.(depth + np)) in
  for i = 0 to depth - 1 do
    if not (Zint.is_zero row.(i)) then
      match iters.(i) with
      | Aff a -> acc := aff_add !acc (aff_scale row.(i) a)
      | Slot k ->
        acc := aff_add !acc { const = Zint.zero; terms = [ (k, row.(i)) ] }
  done;
  for k = 0 to np - 1 do
    if not (Zint.is_zero row.(depth + k)) then
      let p = slot lw lw.sess.s_prog.Prog.params.(k) in
      acc := aff_add !acc { const = Zint.zero; terms = [ (p, row.(depth + k)) ] }
  done;
  affine_fn !acc

(* where an access of the statement goes: its local-buffer redirection
   (name, may be local, indices), else the global array under its
   access map *)
let lower_access lw info iters (a : Prog.access) =
  match List.assq_opt a info.rewrites with
  | Some (Some r) -> (r.Ast.array, true, ref_indices lw r)
  | Some None | None ->
    (a.Prog.array, false, Array.map (access_row lw info.stmt iters) a.Prog.map)

(* A float expression lowers to the cell it writes and the closure that
   writes it: one closure per node, and no float crosses a closure
   boundary. *)
let rec lower_expr lw info iters (e : Prog.expr) : int * (ctx -> unit) =
  (* binary operands are evaluated right to left, the order in which
     the loads (and so the [on_global] addresses) have always come *)
  let operands a b =
    let a = lower_expr lw info iters a and b = lower_expr lw info iters b in
    (a, b, fresh_cell lw)
  in
  match e with
  | Prog.Eref a ->
    let name, may_be_local, fs = lower_access lw info iters a in
    let d = fresh_cell lw in
    (d, lower_load lw name ~may_be_local fs ~dst:d)
  | Prog.Eiter i -> (
    let d = fresh_cell lw in
    match iters.(i) with
    | Aff a ->
      let f = affine_fn a in
      (d, fun ctx -> ctx.fv.(d) <- float_of_int (f ctx.slots))
    | Slot k -> (d, fun ctx -> ctx.fv.(d) <- float_of_int ctx.slots.(k)))
  | Prog.Eparam k ->
    let k = slot lw lw.sess.s_prog.Prog.params.(k) and d = fresh_cell lw in
    (d, fun ctx -> ctx.fv.(d) <- float_of_int ctx.slots.(k))
  | Prog.Econst f ->
    let d = fresh_cell lw in
    (d, fun ctx -> ctx.fv.(d) <- f)
  | Prog.Eneg e ->
    let x, fx = lower_expr lw info iters e and d = fresh_cell lw in
    ( d,
      fun ctx ->
        fx ctx;
        let v = ctx.fv in
        v.(d) <- -.v.(x) )
  | Prog.Eabs e ->
    let x, fx = lower_expr lw info iters e and d = fresh_cell lw in
    ( d,
      fun ctx ->
        fx ctx;
        let v = ctx.fv in
        v.(d) <- Float.abs v.(x) )
  | Prog.Eadd (a, b) ->
    let (x, fx), (y, fy), d = operands a b in
    ( d,
      fun ctx ->
        fy ctx;
        fx ctx;
        let v = ctx.fv in
        v.(d) <- v.(x) +. v.(y) )
  | Prog.Esub (a, b) ->
    let (x, fx), (y, fy), d = operands a b in
    ( d,
      fun ctx ->
        fy ctx;
        fx ctx;
        let v = ctx.fv in
        v.(d) <- v.(x) -. v.(y) )
  | Prog.Emul (a, b) ->
    let (x, fx), (y, fy), d = operands a b in
    ( d,
      fun ctx ->
        fy ctx;
        fx ctx;
        let v = ctx.fv in
        v.(d) <- v.(x) *. v.(y) )
  | Prog.Ediv (a, b) ->
    let (x, fx), (y, fy), d = operands a b in
    ( d,
      fun ctx ->
        fy ctx;
        fx ctx;
        let v = ctx.fv in
        v.(d) <- v.(x) /. v.(y) )
  | Prog.Emin (a, b) ->
    let (x, fx), (y, fy), d = operands a b in
    ( d,
      fun ctx ->
        fy ctx;
        fx ctx;
        let v = ctx.fv in
        v.(d) <- Float.min v.(x) v.(y) )
  | Prog.Emax (a, b) ->
    let (x, fx), (y, fy), d = operands a b in
    ( d,
      fun ctx ->
        fy ctx;
        fx ctx;
        let v = ctx.fv in
        v.(d) <- Float.max v.(x) v.(y) )

let lower_call lw stmt_id (iter_args : Ast.aexpr array) : ctx -> unit =
  match Hashtbl.find_opt lw.sess.s_stmts stmt_id with
  | None ->
    fun _ -> invalid_arg (Printf.sprintf "Exec: unknown statement %d" stmt_id)
  | Some info ->
    let computed = ref [] in
    let iters =
      Array.map (fun e ->
        match affine_of lw e with
        | Some a -> Aff a
        | None ->
          let k = fresh_slot lw in
          computed := (k, lower_aexpr lw e) :: !computed;
          Slot k)
        iter_args
    in
    let computed = Array.of_list (List.rev !computed) in
    let body =
      match info.stmt.Prog.body with
      | None -> fun _ -> ()
      | Some (lhs, rhs) ->
        let rhs = lower_expr lw info iters rhs in
        let name, may_be_local, fs = lower_access lw info iters lhs in
        lower_store lw name ~may_be_local fs rhs
    in
    let flops = info.flops in
    fun ctx ->
      let s = ctx.slots in
      for i = 0 to Array.length computed - 1 do
        let k, f = computed.(i) in
        s.(k) <- f s
      done;
      body ctx;
      ctx.c.flops <- ctx.c.flops +. flops

(* per-group movement attribution: a Copy between global memory and a
   local buffer is one staged word moving in (global -> local) or out
   (local -> global).  Exact under [Full] mode; [Sampled] runs only
   record the iterations they actually execute. *)
let record_copy ctx ~dst ~src =
  ctx.copies <- ctx.copies +. 1.0;
  let is_local b =
    match ctx.bufs.(b) with Local _ -> true | Global _ | Missing _ -> false
  in
  let dst_local = is_local dst and src_local = is_local src in
  if dst_local && not src_local then ctx.dma_in.(dst) <- ctx.dma_in.(dst) +. 1.0
  else if src_local && not dst_local then
    ctx.dma_out.(src) <- ctx.dma_out.(src) +. 1.0

let seq_of (fs : (ctx -> unit) list) : ctx -> unit =
  match Array.of_list fs with
  | [||] -> fun _ -> ()
  | [| f |] -> f
  | [| f; g |] -> fun ctx -> f ctx; g ctx
  | fs ->
    fun ctx ->
      for i = 0 to Array.length fs - 1 do
        fs.(i) ctx
      done

let with_bound lw var f =
  lw.bound <- var :: lw.bound;
  let r = f () in
  lw.bound <- List.tl lw.bound;
  r

(* Blocks of a launch: the product of the trip counts of the outermost
   chain of Block loops, each evaluated at its outer loop's first
   iteration. *)
let rec lower_grid lw (l : Ast.loop) : ctx -> float =
  let lb = lower_aexpr lw l.Ast.lb and ub = lower_aexpr lw l.Ast.ub in
  let step = int_of_const l.Ast.step in
  let k = var_slot lw l.Ast.var in
  let inner =
    match l.Ast.body with
    | [ Ast.Loop ({ par = Ast.Block; _ } as l') ] ->
      Some (with_bound lw l.Ast.var (fun () -> lower_grid lw l'))
    | _ -> None
  in
  fun ctx ->
    let s = ctx.slots in
    let lbv = lb s and ubv = ub s in
    let d = sub_ck ubv lbv in
    let trip = if d < 0 then 0.0 else float_of_int (add_ck (fdiv d step) 1) in
    let inner =
      match inner with
      | None -> 1.0
      | Some g ->
        let saved = s.(k) in
        s.(k) <- lbv;
        let n = g ctx in
        s.(k) <- saved;
        n
    in
    trip *. inner

let rec lower_stm lw (s : Ast.stm) : (ctx -> unit) option =
  lw.lowered <- lw.lowered + 1;
  match s with
  | Ast.Loop l -> Some (lower_loop lw l)
  | Ast.Guard (conds, body) ->
    let conds = Array.of_list (List.map (lower_aexpr lw) conds) in
    let body = lower_block lw body in
    let n = Array.length conds in
    Some
      (fun ctx ->
        let s = ctx.slots in
        let i = ref 0 in
        while !i < n && conds.(!i) s >= 0 do
          incr i
        done;
        if !i = n then body ctx)
  | Ast.Stmt_call { stmt_id; iter_args } ->
    Some (lower_call lw stmt_id iter_args)
  | Ast.Copy { dst; src } ->
    let cell = fresh_cell lw in
    let load =
      lower_load lw src.Ast.array ~may_be_local:true (ref_indices lw src)
        ~dst:cell
    in
    let copy =
      lower_store lw dst.Ast.array ~may_be_local:true (ref_indices lw dst)
        (cell, load)
    in
    let dst_b = buf_slot lw dst.Ast.array ~may_be_local:true
    and src_b = buf_slot lw src.Ast.array ~may_be_local:true in
    Some
      (fun ctx ->
        copy ctx;
        if ctx.collect_dma then record_copy ctx ~dst:dst_b ~src:src_b)
  | Ast.Sync -> Some (fun ctx -> ctx.c.syncs <- ctx.c.syncs +. 1.0)
  | Ast.Fence ->
    Some
      (fun ctx ->
        ctx.c.syncs <- ctx.c.syncs +. 1.0;
        ctx.c.fences <- ctx.c.fences +. 1.0)
  | Ast.Comment _ -> None

and lower_block lw stms = seq_of (List.filter_map (lower_stm lw) stms)

and lower_loop lw (l : Ast.loop) : ctx -> unit =
  let lb = lower_aexpr lw l.Ast.lb and ub = lower_aexpr lw l.Ast.ub in
  let step = int_of_const l.Ast.step in
  let k = var_slot lw l.Ast.var in
  let body = with_bound lw l.Ast.var (fun () -> lower_block lw l.Ast.body) in
  let iterate ctx =
    let s = ctx.slots in
    let lbv = lb s and ubv = ub s in
    if lbv <= ubv then begin
      let trip = add_ck (fdiv (sub_ck ubv lbv) step) 1 in
      let saved = s.(k) in
      (match ctx.mode with
       | Sampled threshold when trip >= threshold && trip > 2 ->
         (* first + last, trapezoid rule for the middle *)
         let before = copy_counters ctx.c in
         let launches_before = List.length ctx.launches in
         s.(k) <- lbv;
         body ctx;
         let launches_first =
           (* launches triggered by the first iteration (freshly
              prepended) must also be replicated for the middle *)
           let fresh = List.length ctx.launches - launches_before in
           List.filteri (fun i _ -> i < fresh) ctx.launches
         in
         s.(k) <- add_ck lbv (mul_by step (trip - 1));
         body ctx;
         let after_last = copy_counters ctx.c in
         let mid = scale_counters (sub_counters after_last before) 0.5 in
         add_scaled ctx.c mid (float_of_int (trip - 2));
         ctx.launches <-
           List.map
             (fun ln ->
               { ln with repeat = ln.repeat *. float_of_int (trip - 2) })
             launches_first
           @ ctx.launches
       | Sampled _ | Full ->
         let v = ref lbv in
         for _ = 1 to trip do
           s.(k) <- !v;
           body ctx;
           v := !v + step
         done);
      s.(k) <- saved
    end
  in
  if l.Ast.par <> Ast.Block then iterate
  else begin
    let grid = lower_grid lw l in
    fun ctx ->
      if ctx.in_launch then iterate ctx
      else begin
        let grid = grid ctx in
        Emsc_obs.Prof.probe "exec.launch"
          ~args:(fun () -> [ ("grid", Emsc_obs.Json.Float grid) ])
        @@ fun () ->
        let before = copy_counters ctx.c in
        ctx.in_launch <- true;
        iterate ctx;
        ctx.in_launch <- false;
        let delta = sub_counters ctx.c before in
        prof_launch delta;
        if grid > 0.0 then
          ctx.launches <-
            { grid; per_block = scale_counters delta (1.0 /. grid);
              repeat = 1.0 }
            :: ctx.launches
      end
  end

let lower sess stms =
  let lw =
    { sess; names = Hashtbl.create 32; nslots = 0; ncells = 0; free = [];
      bound = []; bufs = Hashtbl.create 8; nbufs = 0; max_rank = 0;
      lowered = 0 }
  in
  let run = lower_block lw stms in
  Emsc_obs.Prof.add "exec.lowered_stms" (float_of_int lw.lowered);
  let buf_keys = Array.make lw.nbufs ("", false) in
  Hashtbl.iter (fun key b -> buf_keys.(b) <- key) lw.bufs;
  { run; nslots = lw.nslots; ncells = lw.ncells;
    free = Array.of_list (List.rev lw.free);
    buf_keys; max_rank = lw.max_rank; param_env = sess.s_param_env }

let resolve memory (name, may_be_local) =
  match (if may_be_local then Memory.find_local memory name else None) with
  | Some l -> Local l
  | None -> (
    match Memory.find_global memory name with
    | Some g -> Global g
    | None -> Missing name)

(* Bind the code's free names (later bindings win) and resolve its
   buffers against [memory]: once per block, never per access. *)
let make_ctx (code : code) ~memory ~mode ~on_global ~collect_dma ~in_launch
    ~bindings =
  let slots = Array.make code.nslots 0 in
  Array.iter (fun (name, k) ->
    let bound =
      List.fold_left
        (fun acc (n, v) -> if String.equal n name then Some v else acc)
        None bindings
    in
    let v = match bound with Some v -> v | None -> code.param_env name in
    slots.(k) <- int_of_const v)
    code.free;
  let nbufs = Array.length code.buf_keys in
  { slots; fv = Array.make code.ncells 0.0; idx = Array.make code.max_rank 0;
    bufs = Array.map (resolve memory) code.buf_keys; c = fresh (); mode;
    hook = (match mode with Full -> on_global | Sampled _ -> None);
    collect_dma; copies = 0.0; dma_in = Array.make nbufs 0.0;
    dma_out = Array.make nbufs 0.0; in_launch; launches = [] }

let block_dma_of_ctx (code : code) ctx =
  let moved words =
    let acc = ref [] in
    Array.iteri (fun b (name, _) ->
      if words.(b) > 0.0 then acc := (name, words.(b)) :: !acc)
      code.buf_keys;
    List.sort compare !acc
  in
  { copies = ctx.copies; moved_in = moved ctx.dma_in;
    moved_out = moved ctx.dma_out }

type block_outcome = {
  b_counters : counters;
  b_dma : block_dma;
}

let run_block ~memory ?(mode = Full) ?on_global ?(collect_dma = false)
    ~bindings (code : code) =
  let ctx =
    (* [in_launch] pre-set: the block body's own Block loops are plain
       loops here (the caller owns launch bookkeeping), and Prof is not
       touched — safe on a worker domain *)
    make_ctx code ~memory ~mode ~on_global ~collect_dma ~in_launch:true
      ~bindings
  in
  code.run ctx;
  { b_counters = ctx.c; b_dma = block_dma_of_ctx code ctx }

let run ~prog ?local_ref ~param_env ~memory ?(mode = Full) ?on_global stms =
  let code = lower (session ~prog ?local_ref ~param_env ()) stms in
  let ctx =
    make_ctx code ~memory ~mode ~on_global
      ~collect_dma:(Emsc_obs.Prof.enabled ()) ~in_launch:false ~bindings:[]
  in
  code.run ctx;
  let dma = fresh_tally () in
  tally_add dma (block_dma_of_ctx code ctx);
  record_run_metrics ctx.c dma ~occupancy:(fun () ->
    Memory.local_occupancy memory);
  { totals = ctx.c; launches = List.rev ctx.launches }
