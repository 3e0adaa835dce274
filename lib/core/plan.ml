open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir
open Emsc_codegen

(* Inter-tile reuse: consecutive blocks along the innermost block
   origin share most of their footprint, so every block after the first
   of a chain moves only the delta and every block before the last
   flushes only the writes no later block rewrites.  The sets are
   symbolic in the tile origins; the generated movement selects full or
   delta code with origin-based guards, so it stays deterministic (the
   sequential and parallel executors run bit-identical copies). *)
type reuse = {
  r_origin : string;  (** innermost block origin parameter *)
  r_step : int;       (** its loop step (the block size) *)
  r_lb : int;         (** first origin value of a chain *)
  r_last : int;       (** origin value of a chain's final block *)
  r_full_in : Uset.t;   (** DS(o), what a chain-opening block loads *)
  r_delta_in : Uset.t;  (** DS(o) − DS(o−step) *)
  r_resident : Uset.t;  (** DS(o) ∩ DS(o−step) *)
  r_full_out : Uset.t;  (** W(o), what a chain-closing block flushes *)
  r_delta_out : Uset.t; (** W(o) − W(o+step): a later block of the
                            chain rewrites (and flushes) the rest *)
  r_shift : int array;  (** local relocation per kept dim *)
}

type buffered = {
  buffer : Alloc.buffer;
  report : Reuse.report;
  move_in : Ast.stm list;
  move_out : Ast.stm list;
  reuse : reuse option;
}

type t = {
  prog : Prog.t;
  buffered : buffered list;
  skipped : (Dataspaces.partition * Reuse.report) list;
  delta : float;
  arch : [ `Gpu | `Cell ];
}

let expr_vars e = Ast.free_vars [ Ast.Guard ([ e ], []) ]

(* g ∈ result(o) ⟺ (o + delta, g) ∈ data: the footprint of an adjacent
   block, over the same (params, data) space *)
let origin_shifted ~oi ~delta data =
  let dim = Uset.dim data in
  let map =
    Array.init dim (fun r ->
      let row = Vec.make (dim + 1) in
      row.(r) <- Zint.one;
      if r = oi then row.(dim) <- Zint.of_int delta;
      row)
  in
  Uset.image data map

(* Decide whether a buffer can carry the inter-tile delta, and compute
   the symbolic sets if so.  Refused (falling back to full per-block
   movement, which is always sound) when:
   - the movement sits inside a mem loop: the buffer is re-staged per
     mem iteration, so block-to-block residency does not exist;
   - a buffer bound tracks the origin but not as a unit-coefficient
     affine row, the size is not origin-invariant, or the local window
     moves backwards: the resident relocation would not be a constant
     non-negative per-dim shift;
   - a nonzero shift with a genuinely non-convex resident set: the
     ascending scan-order safety argument is per convex piece, so a
     multi-piece set is accepted only when its template hull is exact
     on integer points (e.g. the contiguous union of a stencil's
     shifted reads) and the relocation scans that single hull. *)
let reuse_of ~p ~param_context ~origin ~step ~mem_names ~buffer ~in_data
    ~out_data ~full_in ~full_out =
  match param_context with
  | None -> None
  | Some ctx -> begin
    try
      let params = p.Prog.params in
      let oi =
        let rec find i =
          if i >= Array.length params then raise Exit
          else if params.(i) = origin then i
          else find (i + 1)
        in
        find 0
      in
      let lb, hi =
        match Poly.var_bounds_int ctx oi with
        | Some lo, Some hi -> (Zint.to_int_exn lo, Zint.to_int_exn hi)
        | _ -> raise Exit
      in
      let last = lb + ((hi - lb) / step) * step in
      let fv = Ast.free_vars (full_in @ full_out) in
      if List.exists (fun m -> List.mem m fv) mem_names then raise Exit;
      let shift =
        Array.mapi (fun i _k ->
          let lbb = buffer.Alloc.lbs.(i) and ubb = buffer.Alloc.ubs.(i) in
          let mentions (b : Alloc.bound) = List.mem origin (expr_vars b.Alloc.expr) in
          if not (mentions lbb) && not (mentions ubb) then 0
          else
            match lbb.Alloc.row, ubb.Alloc.row with
            | Some lrow, Some urow when Zint.compare lrow.(oi) urow.(oi) = 0 ->
              let s = Zint.to_int_exn (Zint.mul lrow.(oi) (Zint.of_int step)) in
              if s < 0 then raise Exit else s
            | _ -> raise Exit)
          buffer.Alloc.kept
      in
      let prev_in = origin_shifted ~oi ~delta:step in_data in
      let next_out = origin_shifted ~oi ~delta:(-step) out_data in
      let resident = Uset.intersect in_data prev_in in
      let resident =
        if Array.for_all (fun s -> s = 0) shift then resident
        else
          match Uset.pieces (Uset.make_disjoint resident) with
          | [] | [ _ ] -> resident
          | _ ->
            (* multi-access footprints (stencils) intersect to a
               multi-piece representation of what is often a convex
               set: coalesce through the template hull when that is
               exact on integer points, else refuse *)
            let hull = Uset.of_poly (Uset.template_hull resident) in
            if Uset.equal_set hull resident then hull else raise Exit
      in
      Some
        { r_origin = origin; r_step = step; r_lb = lb; r_last = last;
          r_full_in = in_data;
          r_delta_in = Uset.subtract in_data prev_in;
          r_resident = resident;
          r_full_out = out_data;
          r_delta_out = Uset.subtract out_data next_out;
          r_shift = shift }
    with Exit | Failure _ -> None
  end

let plan_block ?(delta = 0.3) ?param_env ?param_context ?(arch = `Gpu)
    ?(optimize_movement = false) ?(live_out = fun _ -> true)
    ?(merge_per_array = false) ?inter_tile p =
  Emsc_obs.Prof.probe "plan.plan_block"
    ~args:(fun () ->
      [ ("arch", Emsc_obs.Json.Str (match arch with `Gpu -> "gpu" | `Cell -> "cell"));
        ("delta", Emsc_obs.Json.Float delta) ])
  @@ fun () ->
  let partitions =
    Emsc_obs.Prof.probe "plan.partition" @@ fun () ->
    let parts = Dataspaces.partition_all p in
    if not merge_per_array then parts
    else
      List.filter_map (fun (d : Prog.array_decl) ->
        match
          List.filter (fun (pt : Dataspaces.partition) ->
            pt.Dataspaces.array = d.Prog.array_name)
            parts
        with
        | [] -> None
        | group -> Some (Dataspaces.merge_partitions group))
        p.Prog.arrays
  in
  let deps = if optimize_movement then Deps.analyze p else [] in
  let counter = Hashtbl.create 8 in
  let fresh_name array =
    let n = try Hashtbl.find counter array with Not_found -> 0 in
    Hashtbl.replace counter array (n + 1);
    if n = 0 then "l_" ^ array else Printf.sprintf "l_%s_%d" array n
  in
  let buffered = ref [] and skipped = ref [] in
  List.iter (fun part ->
    Emsc_obs.Prof.probe "plan.partition_plan"
      ~args:(fun () -> [ ("array", Emsc_obs.Json.Str part.Dataspaces.array) ])
    @@ fun () ->
    let report =
      Emsc_obs.Prof.probe "reuse.analyze" @@ fun () ->
      Reuse.analyze ~delta ?param_env p part
    in
    let copy =
      match arch with `Cell -> true | `Gpu -> report.Reuse.beneficial
    in
    if copy then begin
      let buffer =
        Emsc_obs.Prof.probe "alloc.build" @@ fun () ->
        Alloc.build ~local_name:(fresh_name part.Dataspaces.array) p part
      in
      let out_data =
        if optimize_movement then
          Movement.optimized_move_out_data p ~live_out buffer
        else if live_out part.Dataspaces.array then
          Dataspaces.writes_union p part
        else Uset.empty (Prog.nparams p + part.Dataspaces.rank)
      in
      let in_data =
        if optimize_movement then Movement.optimized_move_in_data p deps buffer
        else Dataspaces.reads_union p part
      in
      (* the move-out scan walks the rational image of the writes; when
         that image is not provably exact (e.g. a stride-2 subscript),
         it covers elements no statement instance writes, and copying
         them out of an uninitialized buffer cell would corrupt global
         memory.  Staging the move-out set on the way in makes those
         elements round-trip unchanged (read-modify-write staging). *)
      let in_data =
        let write_exact =
          List.for_all (fun (m : Dataspaces.dspace) ->
            m.Dataspaces.access.Prog.kind <> Prog.Write
            || Dataspaces.exact_image m.Dataspaces.stmt m.Dataspaces.access)
            part.Dataspaces.members
        in
        if write_exact then in_data else Uset.union in_data out_data
      in
      let move_in =
        Emsc_obs.Prof.probe "movement.copy_code_in" @@ fun () ->
        Movement.copy_code ?context:param_context p buffer ~dir:`In
          ~data:in_data
      in
      let move_out =
        Emsc_obs.Prof.probe "movement.copy_code_out" @@ fun () ->
        Movement.copy_code ?context:param_context p buffer ~dir:`Out
          ~data:out_data
      in
      (* optimized movement already prunes the move-in with flow-
         dependence cover, whose interaction with cross-block residency
         is not established; the two refinements are exclusive *)
      let reuse =
        match inter_tile with
        | Some (origin, step, mem_names) when not optimize_movement ->
          Emsc_obs.Prof.probe "plan.inter_tile_reuse" @@ fun () ->
          reuse_of ~p ~param_context ~origin ~step ~mem_names ~buffer
            ~in_data ~out_data ~full_in:move_in ~full_out:move_out
        | _ -> None
      in
      let move_in, move_out =
        match reuse with
        | None -> (move_in, move_out)
        | Some r ->
          let o = Ast.Var r.r_origin in
          let delta_in_nests =
            Movement.copy_code ?context:param_context p buffer ~dir:`In
              ~data:r.r_delta_in
          in
          let delta_out_nests =
            Movement.copy_code ?context:param_context p buffer ~dir:`Out
              ~data:r.r_delta_out
          in
          let shift_nests =
            Movement.shift_code ?context:param_context p buffer
              ~shift:r.r_shift ~data:r.r_resident
          in
          (* all guard conditions are over the block origin, which both
             executors bind identically: full movement on the chain's
             first (move-in) / last (move-out) block, delta elsewhere.
             The shift must precede the delta nests — the delta may
             land on old addresses of resident cells. *)
          ( [ Ast.Guard ([ Ast.Sub (Ast.int_ r.r_lb, o) ], move_in);
              Ast.Guard
                ( [ Ast.simplify (Ast.Sub (o, Ast.int_ (r.r_lb + 1))) ],
                  shift_nests @ delta_in_nests ) ],
            [ Ast.Guard
                ( [ Ast.simplify (Ast.Sub (Ast.int_ (r.r_last - 1), o)) ],
                  delta_out_nests );
              Ast.Guard ([ Ast.Sub (o, Ast.int_ r.r_last) ], move_out) ] )
      in
      buffered := { buffer; report; move_in; move_out; reuse } :: !buffered
    end
    else skipped := (part, report) :: !skipped)
    partitions;
  { prog = p; buffered = List.rev !buffered; skipped = List.rev !skipped;
    delta; arch }

let find_buffer plan (s : Prog.stmt) (a : Prog.access) =
  List.find_opt (fun b ->
    List.exists (fun (m : Dataspaces.dspace) ->
      m.Dataspaces.stmt.Prog.id = s.Prog.id
      && m.Dataspaces.access.Prog.array = a.Prog.array
      && m.Dataspaces.access.Prog.kind = a.Prog.kind
      && Mat.equal m.Dataspaces.access.Prog.map a.Prog.map)
      b.buffer.Alloc.partition.Dataspaces.members)
    plan.buffered

let local_ref plan s a =
  match find_buffer plan s a with
  | None -> None
  | Some b ->
    let buf = b.buffer in
    let np = Prog.nparams plan.prog in
    let depth = s.Prog.depth in
    let names i =
      if i < depth then s.Prog.iter_names.(i)
      else plan.prog.Prog.params.(i - depth)
    in
    ignore np;
    let indices =
      Array.mapi (fun i k ->
        let subscript = Ast.vec_to_aexpr ~names a.Prog.map.(k) in
        Ast.simplify (Ast.Sub (subscript, buf.Alloc.lbs.(i).expr)))
        buf.Alloc.kept
    in
    Some { Ast.array = buf.Alloc.local_name; indices }

let all_move_in plan = List.concat_map (fun b -> b.move_in) plan.buffered
let all_move_out plan = List.concat_map (fun b -> b.move_out) plan.buffered

let total_footprint plan env =
  List.fold_left (fun acc b -> Zint.add acc (Alloc.footprint b.buffer env))
    Zint.zero plan.buffered

let pp fmt plan =
  Format.fprintf fmt "@[<v>plan: %d buffered, %d in global memory@,"
    (List.length plan.buffered)
    (List.length plan.skipped);
  List.iter (fun b ->
    Format.fprintf fmt "%a  %a@," Alloc.pp b.buffer Reuse.pp_report b.report)
    plan.buffered;
  List.iter (fun ((part : Dataspaces.partition), r) ->
    Format.fprintf fmt "skip %s %a@," part.Dataspaces.array Reuse.pp_report r)
    plan.skipped;
  Format.fprintf fmt "@]"

(* --- the Algorithm 1 explain report ------------------------------------ *)

module J = Emsc_obs.Json

type buffer_summary = {
  b_name : string;
  b_dims : (int * string * string * string) array;
      (** (original array dim, lb, ub, size) as printed expressions
          over the program parameters *)
  b_footprint_words : int option;
      (** under the valuation given to {!explain}; [None] when a bound
          stays symbolic *)
  b_move_in_nests : int;
  b_move_out_nests : int;
  b_inter_tile_reuse : bool;
      (** the buffer carries the inter-tile delta: chain-interior
          blocks move only the footprint difference *)
}

type verdict = {
  v_array : string;
  v_members : int;
  v_rank_reuse : bool;
      (** Algorithm 1 criterion (a): some reference's access function
          restricted to the iterators has rank < iteration depth *)
  v_overlap_fraction : float option;
      (** criterion (b) evidence, compared against delta *)
  v_delta : float;
  v_beneficial : bool;
  v_copied : bool;  (** differs from beneficial only under [`Cell] *)
  v_buffer : buffer_summary option;
}

let aexpr_str e = Format.asprintf "%a" Ast.pp_aexpr e

let buffer_summary ~param_env (b : buffered) =
  let buf = b.buffer in
  let sizes = Alloc.size_exprs buf in
  let dims =
    Array.mapi (fun i k ->
      (k, aexpr_str buf.Alloc.lbs.(i).Alloc.expr,
       aexpr_str buf.Alloc.ubs.(i).Alloc.expr, aexpr_str sizes.(i)))
      buf.Alloc.kept
  in
  let footprint =
    match Zint.to_int_exn (Alloc.footprint buf param_env) with
    | n -> Some n
    | exception _ -> None
  in
  { b_name = buf.Alloc.local_name; b_dims = dims;
    b_footprint_words = footprint;
    b_move_in_nests = List.length b.move_in;
    b_move_out_nests = List.length b.move_out;
    b_inter_tile_reuse = b.reuse <> None }

let explain ?(param_env = fun _ -> Zint.zero) plan =
  let of_report ~copied ~buffer (part : Dataspaces.partition)
      (r : Reuse.report) =
    { v_array = part.Dataspaces.array;
      v_members = List.length part.Dataspaces.members;
      v_rank_reuse = r.Reuse.nonconstant;
      v_overlap_fraction = r.Reuse.overlap_fraction;
      v_delta = plan.delta;
      v_beneficial = r.Reuse.beneficial;
      v_copied = copied;
      v_buffer = buffer }
  in
  List.map (fun b ->
    of_report ~copied:true ~buffer:(Some (buffer_summary ~param_env b))
      b.buffer.Alloc.partition b.report)
    plan.buffered
  @ List.map (fun (part, r) -> of_report ~copied:false ~buffer:None part r)
      plan.skipped

let opt_int = function Some n -> J.Int n | None -> J.Null
let opt_float = function Some f -> J.Float f | None -> J.Null

let verdict_json v =
  J.Obj
    [ ("array", J.Str v.v_array);
      ("members", J.Int v.v_members);
      ( "algorithm1",
        J.Obj
          [ ("rank_reuse", J.Bool v.v_rank_reuse);
            ("overlap_fraction", opt_float v.v_overlap_fraction);
            ("delta", J.Float v.v_delta);
            ("beneficial", J.Bool v.v_beneficial) ] );
      ("copied", J.Bool v.v_copied);
      ( "buffer",
        match v.v_buffer with
        | None -> J.Null
        | Some b ->
          J.Obj
            [ ("name", J.Str b.b_name);
              ( "dims",
                J.List
                  (Array.to_list
                     (Array.map (fun (k, lb, ub, size) ->
                        J.Obj
                          [ ("dim", J.Int k); ("lb", J.Str lb);
                            ("ub", J.Str ub); ("size", J.Str size) ])
                        b.b_dims)) );
              ("footprint_words", opt_int b.b_footprint_words);
              ("move_in_nests", J.Int b.b_move_in_nests);
              ("move_out_nests", J.Int b.b_move_out_nests);
              ("inter_tile_reuse", J.Bool b.b_inter_tile_reuse) ] ) ]

let explain_json ?capacity_words ?param_env plan =
  let verdicts = explain ?param_env plan in
  let footprint =
    List.fold_left (fun acc v ->
      match acc, v.v_buffer with
      | Some t, Some { b_footprint_words = Some f; _ } -> Some (t + f)
      | _, None -> acc
      | _ -> None)
      (Some 0) verdicts
  in
  let fits =
    match footprint, capacity_words with
    | Some f, Some c -> J.Bool (f <= c)
    | _ -> J.Null
  in
  J.Obj
    [ ("arch", J.Str (match plan.arch with `Gpu -> "gpu" | `Cell -> "cell"));
      ("delta", J.Float plan.delta);
      ( "program",
        J.Obj
          [ ("statements", J.Int (List.length plan.prog.Prog.stmts));
            ( "arrays",
              J.List
                (List.map (fun (d : Prog.array_decl) ->
                   J.Str d.Prog.array_name)
                   plan.prog.Prog.arrays) );
            ( "params",
              J.List
                (Array.to_list
                   (Array.map (fun s -> J.Str s) plan.prog.Prog.params)) ) ] );
      ("partitions", J.List (List.map verdict_json verdicts));
      ( "totals",
        J.Obj
          [ ("buffered", J.Int (List.length plan.buffered));
            ("skipped", J.Int (List.length plan.skipped));
            ("footprint_words", opt_int footprint);
            ("capacity_words", opt_int capacity_words);
            ("fits_scratchpad", fits) ] ) ]
