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

(* staged-movement accounting local to one execution context: worker
   domains must never touch the (single-threaded) Metrics registry, so
   copies are tallied here and flushed — or reduced across blocks —
   from the main domain *)
type dma_tally = {
  mutable dma_copies : float;
  dma_in : (string, float ref) Hashtbl.t;
  dma_out : (string, float ref) Hashtbl.t;
}

let fresh_dma () =
  { dma_copies = 0.; dma_in = Hashtbl.create 4; dma_out = Hashtbl.create 4 }

let dma_sorted tbl =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort compare

type block_dma = {
  copies : float;
  moved_in : (string * float) list;
  moved_out : (string * float) list;
}

let block_dma_of_tally d =
  { copies = d.dma_copies;
    moved_in = dma_sorted d.dma_in;
    moved_out = dma_sorted d.dma_out }

type ctx = {
  prog : Prog.t;
  stmts : (int, Prog.stmt) Hashtbl.t;
  flops_of : (int, int) Hashtbl.t;
  rewrite : Prog.stmt -> Prog.access -> Ast.ref_expr option;
  param_env : string -> Zint.t;
  memory : Memory.t;
  env : (string, Zint.t) Hashtbl.t;
  c : counters;
  mode : mode;
  on_global : (string -> int -> [ `Ld | `St ] -> unit) option;
  collect_dma : bool;
  dma : dma_tally;
  mutable in_launch : bool;
  mutable launches : launch list;
}

let lookup ctx n =
  match Hashtbl.find_opt ctx.env n with
  | Some v -> v
  | None -> ctx.param_env n

let eval_aexpr ctx e = Ast.eval (lookup ctx) e

(* integer value of an access-map row under the statement's bindings *)
let eval_access_row ctx (s : Prog.stmt) (row : Emsc_linalg.Vec.t) iters =
  let np = Prog.nparams ctx.prog in
  let depth = s.Prog.depth in
  let acc = ref row.(depth + np) in
  for i = 0 to depth - 1 do
    acc := Zint.add !acc (Zint.mul row.(i) iters.(i))
  done;
  for k = 0 to np - 1 do
    (* tile-origin parameters are bound as loop variables, real program
       parameters come from the valuation: go through [lookup] *)
    if not (Zint.is_zero row.(depth + k)) then
      acc :=
        Zint.add !acc
          (Zint.mul row.(depth + k) (lookup ctx ctx.prog.Prog.params.(k)))
  done;
  Zint.to_int_exn !acc

let read_ref ctx (r : Ast.ref_expr) =
  let idx = Array.map (fun e -> Zint.to_int_exn (eval_aexpr ctx e)) r.Ast.indices in
  if Memory.is_local ctx.memory r.Ast.array then begin
    ctx.c.s_ld <- ctx.c.s_ld +. 1.0;
    Memory.read_local ctx.memory r.Ast.array idx
  end
  else begin
    ctx.c.g_ld <- ctx.c.g_ld +. 1.0;
    (match ctx.on_global with
     | Some f when ctx.mode = Full ->
       f r.Ast.array
         (Memory.base_address ctx.memory r.Ast.array
          + Memory.flat_index ctx.memory r.Ast.array idx)
         `Ld
     | Some _ | None -> ());
    Memory.read_global ctx.memory r.Ast.array idx
  end

let write_ref ctx (r : Ast.ref_expr) v =
  let idx = Array.map (fun e -> Zint.to_int_exn (eval_aexpr ctx e)) r.Ast.indices in
  if Memory.is_local ctx.memory r.Ast.array then begin
    ctx.c.s_st <- ctx.c.s_st +. 1.0;
    Memory.write_local ctx.memory r.Ast.array idx v
  end
  else begin
    ctx.c.g_st <- ctx.c.g_st +. 1.0;
    (match ctx.on_global with
     | Some f when ctx.mode = Full ->
       f r.Ast.array
         (Memory.base_address ctx.memory r.Ast.array
          + Memory.flat_index ctx.memory r.Ast.array idx)
         `St
     | Some _ | None -> ());
    Memory.write_global ctx.memory r.Ast.array idx v
  end

let read_access ctx (s : Prog.stmt) (a : Prog.access) iters =
  match ctx.rewrite s a with
  | Some r -> read_ref ctx r
  | None ->
    let idx =
      Array.map (fun row -> eval_access_row ctx s row iters) a.Prog.map
    in
    ctx.c.g_ld <- ctx.c.g_ld +. 1.0;
    (match ctx.on_global with
     | Some f when ctx.mode = Full ->
       f a.Prog.array
         (Memory.base_address ctx.memory a.Prog.array
          + Memory.flat_index ctx.memory a.Prog.array idx)
         `Ld
     | Some _ | None -> ());
    Memory.read_global ctx.memory a.Prog.array idx

let write_access ctx (s : Prog.stmt) (a : Prog.access) iters v =
  match ctx.rewrite s a with
  | Some r -> write_ref ctx r v
  | None ->
    let idx =
      Array.map (fun row -> eval_access_row ctx s row iters) a.Prog.map
    in
    ctx.c.g_st <- ctx.c.g_st +. 1.0;
    (match ctx.on_global with
     | Some f when ctx.mode = Full ->
       f a.Prog.array
         (Memory.base_address ctx.memory a.Prog.array
          + Memory.flat_index ctx.memory a.Prog.array idx)
         `St
     | Some _ | None -> ());
    Memory.write_global ctx.memory a.Prog.array idx v

let rec eval_expr ctx s iters (e : Prog.expr) =
  match e with
  | Prog.Eref a -> read_access ctx s a iters
  | Prog.Eiter i -> Zint.to_float iters.(i)
  | Prog.Eparam k -> Zint.to_float (lookup ctx ctx.prog.Prog.params.(k))
  | Prog.Econst f -> f
  | Prog.Eneg e -> -.eval_expr ctx s iters e
  | Prog.Eabs e -> Float.abs (eval_expr ctx s iters e)
  | Prog.Eadd (a, b) -> eval_expr ctx s iters a +. eval_expr ctx s iters b
  | Prog.Esub (a, b) -> eval_expr ctx s iters a -. eval_expr ctx s iters b
  | Prog.Emul (a, b) -> eval_expr ctx s iters a *. eval_expr ctx s iters b
  | Prog.Ediv (a, b) -> eval_expr ctx s iters a /. eval_expr ctx s iters b
  | Prog.Emin (a, b) ->
    Float.min (eval_expr ctx s iters a) (eval_expr ctx s iters b)
  | Prog.Emax (a, b) ->
    Float.max (eval_expr ctx s iters a) (eval_expr ctx s iters b)

let exec_body ctx (s : Prog.stmt) iters =
  (match s.Prog.body with
   | None -> ()
   | Some (lhs, rhs) ->
     let v = eval_expr ctx s iters rhs in
     write_access ctx s lhs iters v);
  ctx.c.flops <-
    ctx.c.flops +. float_of_int (Hashtbl.find ctx.flops_of s.Prog.id)

let exec_stmt_call ctx stmt_id iter_args =
  let s =
    match Hashtbl.find_opt ctx.stmts stmt_id with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Exec: unknown statement %d" stmt_id)
  in
  let iters = Array.map (eval_aexpr ctx) iter_args in
  exec_body ctx s iters

(* Count the thread blocks of a launch: product of the trip counts of
   the outermost chain of Block loops (each evaluated at its outer
   loop's first iteration). *)
let rec grid_size ctx (l : Ast.loop) =
  let lb = eval_aexpr ctx l.Ast.lb and ub = eval_aexpr ctx l.Ast.ub in
  let trip =
    let d = Zint.sub ub lb in
    if Zint.is_negative d then 0.0
    else Zint.to_float (Zint.add (Zint.fdiv d l.Ast.step) Zint.one)
  in
  let inner =
    match l.Ast.body with
    | [ Ast.Loop ({ par = Ast.Block; _ } as l') ] ->
      Hashtbl.replace ctx.env l.Ast.var lb;
      let g = grid_size ctx l' in
      Hashtbl.remove ctx.env l.Ast.var;
      g
    | _ -> 1.0
  in
  trip *. inner

(* per-group movement attribution: a Copy between global memory and a
   local buffer is one staged word moving in (global -> local) or out
   (local -> global).  Exact under [Full] mode; [Sampled] runs only
   record the iterations they actually execute.  Tallied into the
   context (never straight into Metrics — see [dma_tally]). *)
let record_copy ctx (dst : Ast.ref_expr) (src : Ast.ref_expr) =
  let bump tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r +. 1.0
    | None -> Hashtbl.replace tbl name (ref 1.0)
  in
  ctx.dma.dma_copies <- ctx.dma.dma_copies +. 1.0;
  let dst_local = Memory.is_local ctx.memory dst.Ast.array in
  let src_local = Memory.is_local ctx.memory src.Ast.array in
  if dst_local && not src_local then bump ctx.dma.dma_in dst.Ast.array
  else if src_local && not dst_local then bump ctx.dma.dma_out src.Ast.array

(* flush a movement tally into Metrics; main domain only *)
let flush_dma_metrics (d : block_dma) =
  if Emsc_obs.Metrics.enabled () && d.copies > 0.0 then begin
    Emsc_obs.Metrics.counter "exec.copies" d.copies;
    List.iter (fun (name, words) ->
      if words > 0.0 then
        Emsc_obs.Metrics.counter ~labels:[ ("buffer", name) ]
          "exec.move_in_words" words)
      d.moved_in;
    List.iter (fun (name, words) ->
      if words > 0.0 then
        Emsc_obs.Metrics.counter ~labels:[ ("buffer", name) ]
          "exec.move_out_words" words)
      d.moved_out
  end

(* whole-run totals and scratchpad occupancy, recorded once per run:
   O(1) regardless of program size, and one boolean when disabled *)
let record_run_metrics ctx =
  if Emsc_obs.Metrics.enabled () then begin
    let open Emsc_obs in
    flush_dma_metrics (block_dma_of_tally ctx.dma);
    Metrics.counter "exec.runs" 1.0;
    Metrics.counter "exec.flops" ctx.c.flops;
    Metrics.counter "exec.global_loads" ctx.c.g_ld;
    Metrics.counter "exec.global_stores" ctx.c.g_st;
    Metrics.counter "exec.smem_loads" ctx.c.s_ld;
    Metrics.counter "exec.smem_stores" ctx.c.s_st;
    Metrics.counter "exec.syncs" ctx.c.syncs;
    Metrics.counter "exec.fences" ctx.c.fences;
    let occ = Memory.local_occupancy ctx.memory in
    List.iter (fun (name, cells) ->
      Metrics.gauge_max ~labels:[ ("buffer", name) ]
        "exec.scratchpad_occupancy_words" (float_of_int cells))
      occ;
    if occ <> [] then
      Metrics.gauge_max "exec.scratchpad_occupancy_total_words"
        (float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 occ))
  end

let rec exec_stm ctx (s : Ast.stm) =
  match s with
  | Ast.Loop l -> exec_loop ctx l
  | Ast.Guard (conds, body) ->
    if
      List.for_all (fun c -> not (Zint.is_negative (eval_aexpr ctx c))) conds
    then List.iter (exec_stm ctx) body
  | Ast.Stmt_call { stmt_id; iter_args } -> exec_stmt_call ctx stmt_id iter_args
  | Ast.Copy { dst; src } ->
    let v = read_ref ctx src in
    write_ref ctx dst v;
    if ctx.collect_dma then record_copy ctx dst src
  | Ast.Sync -> ctx.c.syncs <- ctx.c.syncs +. 1.0
  | Ast.Fence ->
    ctx.c.syncs <- ctx.c.syncs +. 1.0;
    ctx.c.fences <- ctx.c.fences +. 1.0
  | Ast.Comment _ -> ()

and exec_loop ctx (l : Ast.loop) =
  let starts_launch = l.Ast.par = Ast.Block && not ctx.in_launch in
  if starts_launch then begin
    let grid = grid_size ctx l in
    Emsc_obs.Prof.probe "exec.launch"
      ~args:[ ("grid", Emsc_obs.Json.Float grid) ]
    @@ fun () ->
    let before = copy_counters ctx.c in
    ctx.in_launch <- true;
    exec_loop_body ctx l;
    ctx.in_launch <- false;
    let delta = sub_counters ctx.c before in
    Emsc_obs.Prof.add "launch.flops" delta.flops;
    Emsc_obs.Prof.add "launch.global" (total_global delta);
    Emsc_obs.Prof.add "launch.smem" (total_smem delta);
    Emsc_obs.Prof.add "launch.syncs" delta.syncs;
    if grid > 0.0 then
      ctx.launches <-
        { grid; per_block = scale_counters delta (1.0 /. grid); repeat = 1.0 }
        :: ctx.launches
  end
  else exec_loop_body ctx l

and exec_loop_body ctx (l : Ast.loop) =
  let lb = eval_aexpr ctx l.Ast.lb and ub = eval_aexpr ctx l.Ast.ub in
  if Zint.compare lb ub <= 0 then begin
    let trip =
      Zint.to_int_exn (Zint.add (Zint.fdiv (Zint.sub ub lb) l.Ast.step) Zint.one)
    in
    let saved = Hashtbl.find_opt ctx.env l.Ast.var in
    let run_at v =
      Hashtbl.replace ctx.env l.Ast.var v;
      List.iter (exec_stm ctx) l.Ast.body
    in
    (match ctx.mode with
     | Sampled threshold when trip >= threshold && trip > 2 ->
       (* first + last, trapezoid rule for the middle *)
       let before = copy_counters ctx.c in
       let launches_before = List.length ctx.launches in
       run_at lb;
       let launches_first =
         (* launches triggered by the first iteration (freshly
            prepended) must also be replicated for the middle *)
         let fresh = List.length ctx.launches - launches_before in
         List.filteri (fun i _ -> i < fresh) ctx.launches
       in
       let last = Zint.add lb (Zint.mul l.Ast.step (Zint.of_int (trip - 1))) in
       run_at last;
       let after_last = copy_counters ctx.c in
       let mid = scale_counters (sub_counters after_last before) 0.5 in
       add_scaled ctx.c mid (float_of_int (trip - 2));
       ctx.launches <-
         List.map
           (fun ln -> { ln with repeat = ln.repeat *. float_of_int (trip - 2) })
           launches_first
         @ ctx.launches
     | Sampled _ | Full ->
       let v = ref lb in
       for _ = 1 to trip do
         run_at !v;
         v := Zint.add !v l.Ast.step
       done);
    (match saved with
     | Some v -> Hashtbl.replace ctx.env l.Ast.var v
     | None -> Hashtbl.remove ctx.env l.Ast.var)
  end

let prepare_tables prog =
  let stmts = Hashtbl.create 8 in
  let flops_of = Hashtbl.create 8 in
  List.iter (fun (s : Prog.stmt) ->
    Hashtbl.replace stmts s.Prog.id s;
    let f =
      match s.Prog.body with
      | None -> 0
      | Some (_, rhs) -> 1 + expr_flops rhs
    in
    Hashtbl.replace flops_of s.Prog.id f)
    prog.Prog.stmts;
  (stmts, flops_of)

type session = {
  s_prog : Prog.t;
  s_stmts : (int, Prog.stmt) Hashtbl.t;
  s_flops_of : (int, int) Hashtbl.t;
  s_rewrite : Prog.stmt -> Prog.access -> Ast.ref_expr option;
  s_param_env : string -> Zint.t;
}

let rec expr_accesses acc = function
  | Prog.Eref a -> a :: acc
  | Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _ -> acc
  | Prog.Eneg e | Prog.Eabs e -> expr_accesses acc e
  | Prog.Eadd (a, b) | Prog.Esub (a, b) | Prog.Emul (a, b)
  | Prog.Ediv (a, b) | Prog.Emin (a, b) | Prog.Emax (a, b) ->
    expr_accesses (expr_accesses acc a) b

(* The rewrite memo must be safe to consult from many domains at once,
   so it is filled eagerly here — every access the interpreter can
   reach lives in some statement body, all enumerable up front — and
   never mutated afterwards (concurrent reads of an unchanging Hashtbl
   are safe).  A miss (structurally fresh access) falls through to [f]
   without caching. *)
let session ~prog ?local_ref ~param_env () =
  let stmts, flops_of = prepare_tables prog in
  let rewrite =
    match local_ref with
    | None -> fun _ _ -> None
    | Some f ->
      let cache = Hashtbl.create 64 in
      List.iter (fun (s : Prog.stmt) ->
        match s.Prog.body with
        | None -> ()
        | Some (lhs, rhs) ->
          List.iter (fun (a : Prog.access) ->
            let key = (s.Prog.id, Obj.repr a) in
            if not (Hashtbl.mem cache key) then
              Hashtbl.replace cache key (f s a))
            (expr_accesses [ lhs ] rhs))
        prog.Prog.stmts;
      fun (s : Prog.stmt) (a : Prog.access) ->
        match Hashtbl.find_opt cache (s.Prog.id, Obj.repr a) with
        | Some r -> r
        | None -> f s a
  in
  { s_prog = prog; s_stmts = stmts; s_flops_of = flops_of;
    s_rewrite = rewrite; s_param_env = param_env }

let make_ctx session ~memory ~mode ~on_global ~collect_dma ~in_launch =
  { prog = session.s_prog; stmts = session.s_stmts;
    flops_of = session.s_flops_of; rewrite = session.s_rewrite;
    param_env = session.s_param_env; memory; env = Hashtbl.create 32;
    c = fresh (); mode; on_global; collect_dma; dma = fresh_dma ();
    in_launch; launches = [] }

type block_outcome = {
  b_counters : counters;
  b_dma : block_dma;
}

let run_block session ~memory ?(mode = Full) ?on_global
    ?(collect_dma = false) ~bindings stms =
  let ctx =
    (* [in_launch] pre-set: the block body's own Block loops are plain
       loops here (the caller owns launch bookkeeping), and neither
       Prof nor Metrics is touched — safe on a worker domain *)
    make_ctx session ~memory ~mode ~on_global ~collect_dma ~in_launch:true
  in
  List.iter (fun (n, v) -> Hashtbl.replace ctx.env n v) bindings;
  List.iter (exec_stm ctx) stms;
  { b_counters = ctx.c; b_dma = block_dma_of_tally ctx.dma }

let run ~prog ?local_ref ~param_env ~memory ?(mode = Full) ?on_global stms =
  let session = session ~prog ?local_ref ~param_env () in
  let ctx =
    make_ctx session ~memory ~mode ~on_global
      ~collect_dma:(Emsc_obs.Metrics.enabled ()) ~in_launch:false
  in
  List.iter (exec_stm ctx) stms;
  record_run_metrics ctx;
  { totals = ctx.c; launches = List.rev ctx.launches }

let run_instances ~prog ~param_env ~memory ?on_global insts =
  let session = session ~prog ~param_env () in
  let ctx =
    make_ctx session ~memory ~mode:Full ~on_global
      ~collect_dma:(Emsc_obs.Metrics.enabled ()) ~in_launch:false
  in
  List.iter (fun (s, iters) -> exec_body ctx s iters) insts;
  record_run_metrics ctx;
  ctx.c
