open Emsc_arith
open Emsc_poly
open Emsc_ir
open Emsc_core
open Emsc_transform
open Emsc_machine
open Emsc_driver
module Metrics = Emsc_obs.Metrics
module J = Emsc_obs.Json

type quantity = {
  q_name : string;
  q_predicted : float;
  q_measured : float;
  q_rel_err : float;
}

type group = {
  g_buffer : string;
  g_array : string;
  g_quantities : quantity list;
  g_unknown : string list;
}

type edge_group = {
  e_edge : string;
  e_quantities : quantity list;
  e_unknown : string list;
}

type verdict = Pass | Warn | Fail

type reuse_group = {
  r_buffer : string;
  r_redundant : float;
  r_irredundant : float;
}

type t = {
  a_source : string;
  a_tiled : bool;
  a_tolerance : float;
  a_machine : string;
  a_groups : group list;
  a_reuse : reuse_group list;
  a_placement : Placement.t option;
  a_edges : edge_group list;
  a_program : quantity list;
  a_timing : quantity list;
  a_unknown : string list;
  a_notes : string list;
  a_worst : quantity option;
  a_verdict : verdict;
  a_metrics : Metrics.snapshot;
}

type outcome =
  | Audited of t
  | Skipped of string
  | Failed of string

(* Box-volume slack plus partial boundary tiles put the shipped
   examples and the kernel suite within ~15% of measured; 0.25 leaves
   headroom without masking a broken model (see EXPERIMENTS.md). *)
let default_tolerance = 0.25

let rel_err ~predicted ~measured =
  (predicted -. measured) /. Float.max 1.0 (Float.abs measured)

let quantity name predicted measured =
  { q_name = name; q_predicted = predicted; q_measured = measured;
    q_rel_err = rel_err ~predicted ~measured }

(* ------------------------------------------------------------------ *)
(* Predicted side                                                      *)
(* ------------------------------------------------------------------ *)

(* exact dynamic instance count of a statement under a parameter
   valuation (iterator dimensions first, then parameters) *)
let instance_count (prog : Prog.t) (s : Prog.stmt) env =
  try
    let p = ref s.Prog.domain in
    Array.iter (fun name -> p := Poly.fix_dim !p s.Prog.depth (env name))
      prog.Prog.params;
    match Count.count_poly ~limit:20_000_000 !p with
    | Count.Exact n -> Some (Zint.to_float n)
    | Count.More_than _ | Count.Unbounded -> None
  with Failure _ | Not_found -> None

(* the executor counts one load per [Eref] *evaluation*, so walk
   the executable body rather than the [reads] list *)
let rec rhs_accesses = function
  | Prog.Eref a -> [ a ]
  | Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _ -> []
  | Prog.Eneg e | Prog.Eabs e -> rhs_accesses e
  | Prog.Eadd (a, b) | Prog.Esub (a, b) | Prog.Emul (a, b)
  | Prog.Ediv (a, b) | Prog.Emin (a, b) | Prog.Emax (a, b) ->
    rhs_accesses a @ rhs_accesses b

type access_pred = {
  p_flops : float;
  p_g_ld : float;   (* unstaged compute loads *)
  p_g_st : float;
  p_s_ld : float;   (* staged compute loads *)
  p_s_st : float;
}

(* Predicted compute-access counters.  The executed program is
   [plan.prog] (the tiled "tile block" program when tiling), but every
   original instance executes exactly once across tiles, so instance
   counts come from the original statement with the same id; the
   staged-or-not decision per access comes from the plan. *)
let predict_accesses ~staging (c : Pipeline.compiled) (plan : Plan.t) env =
  let flops = ref 0.0 and g_ld = ref 0.0 and g_st = ref 0.0
  and s_ld = ref 0.0 and s_st = ref 0.0 and known = ref true in
  List.iter (fun (ps : Prog.stmt) ->
    match ps.Prog.body with
    | None -> ()
    | Some (lhs, rhs) ->
      let orig =
        try Some (Prog.find_stmt c.Pipeline.prog ps.Prog.id)
        with _ -> None
      in
      (match orig with
       | None -> known := false
       | Some orig ->
         (match instance_count c.Pipeline.prog orig env with
          | None -> known := false
          | Some inst ->
            let staged a = staging && Plan.local_ref plan ps a <> None in
            flops := !flops +. (inst *. float_of_int (1 + Exec.expr_flops rhs));
            List.iter (fun a ->
              if staged a then s_ld := !s_ld +. inst
              else g_ld := !g_ld +. inst)
              (rhs_accesses rhs);
            if staged lhs then s_st := !s_st +. inst
            else g_st := !g_st +. inst)))
    plan.Plan.prog.Prog.stmts;
  if !known then
    Some { p_flops = !flops; p_g_ld = !g_ld; p_g_st = !g_st;
           p_s_ld = !s_ld; p_s_st = !s_st }
  else None

(* how many times a buffer's movement pair executes over the whole run:
   the Section 4.3 occurrence factor (mem-level trips, honouring
   hoisting) times the number of block tiles *)
let occurrences (c : Pipeline.compiled) (b : Plan.buffered) =
  match c.Pipeline.tiled with
  | None -> Some 1.0
  | Some t ->
    (try
       Some
         (Tile.movement_profile c.Pipeline.prog t.Pipeline.spec
            (b.Plan.move_in, b.Plan.move_out)
          *. Tile.block_tile_count c.Pipeline.prog t.Pipeline.spec)
     with Invalid_argument _ -> None)

let volume (plan : Plan.t) (b : Plan.buffered) kind env =
  try
    match
      Movement.volume_upper_bound plan.Plan.prog
        b.Plan.buffer.Alloc.partition ~kind ~env
    with
    | Some z -> Some (Zint.to_float z)
    | None -> None
  with Failure _ | Not_found -> None

(* per-occurrence volume scaled to a whole-run total; a movement list
   the plan left empty is a *known* zero, not an unknown.  This is the
   REDUNDANT model: every block pays its full footprint. *)
let predict_full_movement c plan env (b : Plan.buffered) kind =
  let code =
    match kind with `Read -> b.Plan.move_in | `Write -> b.Plan.move_out
  in
  if code = [] then Some 0.0
  else
    match occurrences c b, volume plan b kind env with
    | Some occ, Some v -> Some (occ *. v)
    | _ -> None

(* exact point count of a plan data set with the reuse origin pinned at
   a chosen block and every other origin at the valuation *)
let count_at prog ~env ~origin ~origin_at us =
  let env' name = if name = origin then origin_at else env name in
  match Count.count_uset (Dataspaces.instantiate_union prog ~env:env' us) with
  | Count.Exact n -> Some (Zint.to_float n)
  | Count.More_than _ | Count.Unbounded -> None
  | exception _ -> None

(* (total blocks, chains) of a reuse buffer over the whole run: the
   origin steps [trips] times per chain, so the block-tile count
   factors into chains of [trips] consecutive blocks *)
let reuse_chain_counts c (b : Plan.buffered) (r : Plan.reuse) =
  match occurrences c b with
  | None -> None
  | Some blocks ->
    let trips =
      float_of_int (((r.Plan.r_last - r.Plan.r_lb) / r.Plan.r_step) + 1)
    in
    Some (blocks, blocks /. trips)

(* IRREDUNDANT model for a reuse buffer: each chain opens (move-in) or
   closes (move-out) with one full transfer; its other blocks move
   only the delta.  Delta sizes are taken at a chain-interior block
   (origin = lb + step); blocks clipped by the domain boundary move
   less, so the prediction stays an upper bound. *)
let predict_reuse_movement c plan env (b : Plan.buffered) (r : Plan.reuse)
    kind =
  match reuse_chain_counts c b r with
  | None -> None
  | Some (blocks, chains) ->
    let prog = plan.Plan.prog in
    let origin = r.Plan.r_origin in
    let full, delta =
      match kind with
      | `Read -> (r.Plan.r_full_in, r.Plan.r_delta_in)
      | `Write -> (r.Plan.r_full_out, r.Plan.r_delta_out)
    in
    (match
       count_at prog ~env ~origin ~origin_at:(Zint.of_int r.Plan.r_lb) full
     with
     | None -> None
     | Some fv ->
       if r.Plan.r_lb = r.Plan.r_last then Some (chains *. fv)
       else (
         match
           count_at prog ~env ~origin
             ~origin_at:(Zint.of_int (r.Plan.r_lb + r.Plan.r_step))
             delta
         with
         | Some dv -> Some ((chains *. fv) +. ((blocks -. chains) *. dv))
         | None -> None))

let predict_movement c plan env (b : Plan.buffered) kind =
  match b.Plan.reuse with
  | Some r -> (
    match predict_reuse_movement c plan env b r kind with
    | Some _ as v -> v
    | None -> predict_full_movement c plan env b kind)
  | None -> predict_full_movement c plan env b kind

(* local-to-local relocation of resident slabs: invisible to the DMA
   counters but one scratchpad load + store per shifted cell, so the
   program-level smem prediction must carry it *)
let predict_buffer_shift c plan env (b : Plan.buffered) =
  match b.Plan.reuse with
  | Some r
    when Array.exists (fun s -> s <> 0) r.Plan.r_shift
         && r.Plan.r_lb <> r.Plan.r_last -> (
    match
      ( reuse_chain_counts c b r,
        count_at plan.Plan.prog ~env ~origin:r.Plan.r_origin
          ~origin_at:(Zint.of_int (r.Plan.r_lb + r.Plan.r_step))
          r.Plan.r_resident )
    with
    | Some (blocks, chains), Some rv -> Some ((blocks -. chains) *. rv)
    | _ -> None)
  | _ -> Some 0.0

(* ------------------------------------------------------------------ *)
(* The audit                                                           *)
(* ------------------------------------------------------------------ *)

let audit_group c plan env m mem (b : Plan.buffered) =
  let name = b.Plan.buffer.Alloc.local_name in
  let labels = [ ("buffer", name) ] in
  let quantities = ref [] and unknown = ref [] in
  let movement q_name kind counter =
    let measured = Metrics.counter_value ~labels m counter in
    match predict_movement c plan env b kind with
    | Some p -> quantities := quantity q_name p measured :: !quantities
    | None -> unknown := q_name :: !unknown
  in
  movement "move_in_words" `Read "exec.move_in_words";
  movement "move_out_words" `Write "exec.move_out_words";
  (* cumulative distinct cells equal the buffer's single window only
     when there is one tile, i.e. untiled *)
  if c.Pipeline.tiled = None then begin
    match
      (try Some (Zint.to_float (Alloc.footprint b.Plan.buffer env))
       with _ -> None)
    with
    | Some fp ->
      let measured =
        match List.assoc_opt name (Memory.local_occupancy mem) with
        | Some n -> float_of_int n
        | None -> 0.0
      in
      quantities := quantity "footprint_words" fp measured :: !quantities
    | None -> unknown := "footprint_words" :: !unknown
  end;
  { g_buffer = name; g_array = b.Plan.buffer.Alloc.array;
    g_quantities = List.rev !quantities; g_unknown = List.rev !unknown }

(* redundant vs irredundant movement for a reuse buffer: the
   counterfactual every-block-pays-its-footprint total against the
   words the delta-mode run actually moved.  A delta run may never move
   MORE than full mode would — that's the bug class this section
   gates. *)
let reuse_group c plan env m (b : Plan.buffered) =
  match b.Plan.reuse with
  | None -> None
  | Some r ->
    let name = b.Plan.buffer.Alloc.local_name in
    let labels = [ ("buffer", name) ] in
    let measured =
      Metrics.counter_value ~labels m "exec.move_in_words"
      +. Metrics.counter_value ~labels m "exec.move_out_words"
    in
    let prog = plan.Plan.prog in
    let origin = r.Plan.r_origin in
    let at_lb = Zint.of_int r.Plan.r_lb in
    (match
       ( reuse_chain_counts c b r,
         count_at prog ~env ~origin ~origin_at:at_lb r.Plan.r_full_in,
         count_at prog ~env ~origin ~origin_at:at_lb r.Plan.r_full_out )
     with
     | Some (blocks, _), Some fin, Some fout ->
       Some
         { r_buffer = name;
           r_redundant = blocks *. (fin +. fout);
           r_irredundant = measured }
     | _ -> None)

let sum_known = function
  | [] -> Some 0.0
  | l ->
    List.fold_left (fun acc v ->
      match acc, v with Some a, Some b -> Some (a +. b) | _ -> None)
      (Some 0.0) l

let zeroed_sync (src : Exec.counters) =
  let c = Exec.fresh () in
  c.Exec.flops <- src.Exec.flops;
  c.Exec.g_ld <- src.Exec.g_ld;
  c.Exec.g_st <- src.Exec.g_st;
  c.Exec.s_ld <- src.Exec.s_ld;
  c.Exec.s_st <- src.Exec.s_st;
  c

(* Per-edge movement accounting: a buffer placed at level i is staged
   across every edge between i and the home, so each edge's totals are
   the sums over the buffers at or inside its inner level.  These
   aggregates are reported (and benched) but deliberately kept out of
   the verdict: the per-buffer quantities already gate soundness, and
   an aggregate is just their weighted combination. *)
let audit_edges c plan env m hierarchy ~double_buffer =
  let placement = Placement.of_plan ~double_buffer hierarchy plan env in
  let buf_level (b : Plan.buffered) =
    match Placement.find placement b.Plan.buffer.Alloc.local_name with
    | Some p -> Some p.Placement.p_level_index
    | None -> None  (* symbolic footprint: not placed *)
  in
  let edge_groups =
    List.mapi
      (fun j e ->
        let crossing =
          List.filter
            (fun b -> match buf_level b with Some i -> i <= j | None -> false)
            plan.Plan.buffered
        in
        let unplaced =
          List.filter_map
            (fun (b : Plan.buffered) ->
              if buf_level b = None then
                Some b.Plan.buffer.Alloc.local_name
              else None)
            plan.Plan.buffered
        in
        let quantities = ref [] and unknown = ref unplaced in
        let direction q_name kind counter =
          let measured =
            List.fold_left
              (fun acc (b : Plan.buffered) ->
                acc
                +. Metrics.counter_value
                     ~labels:
                       [ ("buffer", b.Plan.buffer.Alloc.local_name) ]
                     m counter)
              0.0 crossing
          in
          match
            sum_known
              (List.map (fun b -> predict_movement c plan env b kind)
                 crossing)
          with
          | Some p -> quantities := quantity q_name p measured :: !quantities
          | None -> unknown := q_name :: !unknown
        in
        direction "move_in_words" `Read "exec.move_in_words";
        direction "move_out_words" `Write "exec.move_out_words";
        { e_edge = Hierarchy.edge_name e;
          e_quantities = List.rev !quantities;
          e_unknown = List.rev !unknown })
      (Hierarchy.edges hierarchy)
  in
  (placement, edge_groups)

let audit_compiled ?(tolerance = default_tolerance) ?(double_buffer = false)
    ?(hierarchy = Hierarchy.gtx8800) ?(param_env = Runner.zero_env)
    (c : Pipeline.compiled) =
  match c.Pipeline.plan with
  | None -> Skipped "pipeline stops before planning"
  | Some plan ->
    Emsc_obs.Prof.probe "audit.run" @@ fun () ->
    let staging = c.Pipeline.options.Options.stage_data in
    let was_on = Emsc_obs.Prof.enabled () in
    let measured =
      try
        Emsc_obs.Prof.enable ();
        let snap0 = Metrics.snapshot () in
        Fun.protect
          ~finally:(fun () -> if not was_on then Emsc_obs.Prof.disable ())
          (fun () ->
            let mem, res =
              Runner.simulate ~mode:Exec.Full ~memory:Runner.Zeroed
                ~param_env c
            in
            Ok (mem, res, Metrics.diff snap0 (Metrics.snapshot ())))
      with
      | Failure msg -> Error ("execution failed: " ^ msg)
      | Invalid_argument msg -> Error ("execution failed: " ^ msg)
      | Not_found -> Error "execution failed: unbound variable"
    in
    (match measured with
     | Error e -> Failed e
     | Ok (mem, res, m) ->
       let env = Runner.plan_env c param_env in
       let groups =
         if staging then
           List.map (audit_group c plan env m mem) plan.Plan.buffered
         else []
       in
       let reuse_groups =
         if staging then
           List.filter_map (reuse_group c plan env m) plan.Plan.buffered
         else []
       in
       let placement, edges =
         if staging && plan.Plan.buffered <> [] then
           let p, e = audit_edges c plan env m hierarchy ~double_buffer in
           (Some p, e)
         else (None, [])
       in
       let pred_in =
         if staging then
           sum_known
             (List.map (fun b -> predict_movement c plan env b `Read)
                plan.Plan.buffered)
         else Some 0.0
       in
       let pred_out =
         if staging then
           sum_known
             (List.map (fun b -> predict_movement c plan env b `Write)
                plan.Plan.buffered)
         else Some 0.0
       in
       let pred_shift =
         if staging then
           sum_known
             (List.map (predict_buffer_shift c plan env) plan.Plan.buffered)
         else Some 0.0
       in
       let access = predict_accesses ~staging c plan env in
       let totals = res.Exec.totals in
       let program, timing, unknowns =
         match access, pred_in, pred_out, pred_shift with
         | Some a, Some tin, Some tout, Some tsh ->
           (* each moved word is one global op and one scratchpad op;
              each shifted (relocated) word is two scratchpad ops *)
           let g_pred = a.p_g_ld +. a.p_g_st +. tin +. tout in
           let s_pred =
             a.p_s_ld +. a.p_s_st +. tin +. tout +. (2.0 *. tsh)
           in
           let program =
             [ quantity "flops" a.p_flops totals.Exec.flops;
               quantity "global_words" g_pred (Exec.total_global totals);
               quantity "smem_words" s_pred (Exec.total_smem totals) ]
           in
           let word_bytes =
             (Hierarchy.staging hierarchy).Hierarchy.l_word_bytes
           in
           let smem_bytes =
             match
               Timing.plan_smem_bytes ~double_buffer ~word_bytes plan env
             with
             | Some b when staging -> b
             | _ ->
               Hierarchy.effective_words ~double_buffer
                 (Timing.default_params.Timing.smem_bytes_per_block
                  / word_bytes)
               * word_bytes
           in
           let params =
             { Timing.default_params with
               Timing.smem_bytes_per_block = smem_bytes;
               Timing.double_buffer }
           in
           let breakdown cs =
             Timing.launch_breakdown hierarchy params
               { Exec.grid = 1.0; per_block = cs; repeat = 1.0 }
           in
           let pc = Exec.fresh () in
           pc.Exec.flops <- a.p_flops;
           pc.Exec.g_ld <- a.p_g_ld +. tin;
           pc.Exec.g_st <- a.p_g_st +. tout;
           pc.Exec.s_ld <- a.p_s_ld +. tout +. tsh;
           pc.Exec.s_st <- a.p_s_st +. tin +. tsh;
           (* synchronization is placement-driven, not modelled here:
              audit the three resource terms on sync-free counters *)
           let pb = breakdown pc and mb = breakdown (zeroed_sync totals) in
           let timing =
             [ quantity "t_comp" pb.Timing.t_comp mb.Timing.t_comp;
               quantity "t_bw" pb.Timing.t_bw mb.Timing.t_bw;
               quantity "t_lat" pb.Timing.t_lat mb.Timing.t_lat ]
           in
           (program, timing, [])
         | _ ->
           ( [], [],
             [ "flops"; "global_words"; "smem_words"; "t_comp"; "t_bw";
               "t_lat" ] )
       in
       let notes =
         (if c.Pipeline.tiled <> None then
            [ "tiled: movement predictions assume full tiles; measured \
               scratchpad occupancy is cumulative across tiles, so \
               footprint_words is not audited" ]
          else [])
         @ (if c.Pipeline.options.Options.optimize_movement then
              [ "movement optimization on: predictions use the \
                 unoptimized copy sets (upper bounds)" ]
            else [])
         @ (if reuse_groups <> [] then
              [ "inter-tile reuse on: movement predictions use the \
                 chain-aware delta model; the reuse section compares \
                 measured movement against the full-per-block \
                 counterfactual" ]
            else [])
         @
         if staging then []
         else
           [ "stage_data off: no scratchpad at run time; per-buffer \
              movement not audited" ]
       in
       let all_q =
         program @ timing @ List.concat_map (fun g -> g.g_quantities) groups
       in
       let worst =
         List.fold_left (fun acc q ->
           match acc with
           | Some w when Float.abs w.q_rel_err >= Float.abs q.q_rel_err ->
             acc
           | _ -> Some q)
           None all_q
       in
       let any_unknown =
         unknowns <> [] || List.exists (fun g -> g.g_unknown <> []) groups
       in
       (* predictions are upper bounds: measured above predicted is a
          soundness violation of the model and fails; slack beyond the
          tolerance (loose boxes, e.g. diagonal access) only warns.
          Irredundant (delta) movement exceeding the redundant
          counterfactual is likewise unsound — delta mode must never
          move more than full mode would. *)
       let reuse_unsound =
         List.exists
           (fun rg ->
             rg.r_irredundant
             > rg.r_redundant +. (1e-6 *. Float.max 1.0 rg.r_redundant))
           reuse_groups
       in
       let verdict =
         if
           reuse_unsound
           || List.exists (fun q -> q.q_rel_err < -.tolerance) all_q
         then Fail
         else if
           any_unknown || List.exists (fun q -> q.q_rel_err > tolerance) all_q
         then Warn
         else Pass
       in
       Audited
         { a_source = c.Pipeline.source_name;
           a_tiled = c.Pipeline.tiled <> None;
           a_tolerance = tolerance;
           a_machine = Hierarchy.name hierarchy;
           a_groups = groups;
           a_reuse = reuse_groups;
           a_placement = placement;
           a_edges = edges;
           a_program = program;
           a_timing = timing;
           a_unknown = unknowns;
           a_notes = notes;
           a_worst = worst;
           a_verdict = verdict;
           a_metrics = m })

let auditable (c : Pipeline.compiled) = c.Pipeline.plan <> None

let audit_job ?cache ?tolerance ?double_buffer ?hierarchy ?param_env
    (job : Pipeline.job) =
  match Pipeline.compile ?cache job with
  | Error e -> Failed ("compile: " ^ Frontend.error_message e)
  | Ok c -> audit_compiled ?tolerance ?double_buffer ?hierarchy ?param_env c

let ok = function
  | Audited t -> t.a_verdict <> Fail
  | Skipped _ -> true
  | Failed _ -> false

let verdict_string = function
  | Pass -> "pass"
  | Warn -> "warn"
  | Fail -> "fail"

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let quantity_json q =
  J.Obj
    [ ("name", J.Str q.q_name);
      ("predicted", J.Float q.q_predicted);
      ("measured", J.Float q.q_measured);
      ("rel_err", J.Float q.q_rel_err) ]

let strs l = J.List (List.map (fun s -> J.Str s) l)

let group_json g =
  J.Obj
    [ ("buffer", J.Str g.g_buffer);
      ("array", J.Str g.g_array);
      ("quantities", J.List (List.map quantity_json g.g_quantities));
      ("unknown", strs g.g_unknown) ]

let reuse_group_json rg =
  J.Obj
    [ ("buffer", J.Str rg.r_buffer);
      ("redundant_words", J.Float rg.r_redundant);
      ("irredundant_words", J.Float rg.r_irredundant);
      ( "saved_fraction",
        J.Float
          ((rg.r_redundant -. rg.r_irredundant)
          /. Float.max 1.0 rg.r_redundant) ) ]

let edge_group_json e =
  J.Obj
    [ ("edge", J.Str e.e_edge);
      ("quantities", J.List (List.map quantity_json e.e_quantities));
      ("unknown", strs e.e_unknown) ]

let json t =
  J.Obj
    [ ("schema", J.Str "emsc-audit/1");
      ("source", J.Str t.a_source);
      ("tiled", J.Bool t.a_tiled);
      ("tolerance", J.Float t.a_tolerance);
      ("machine", J.Str t.a_machine);
      ("verdict", J.Str (verdict_string t.a_verdict));
      ( "worst",
        match t.a_worst with Some q -> quantity_json q | None -> J.Null );
      ("groups", J.List (List.map group_json t.a_groups));
      ("reuse", J.List (List.map reuse_group_json t.a_reuse));
      ( "placement",
        match t.a_placement with
        | Some p -> Placement.to_json p
        | None -> J.Null );
      ("edges", J.List (List.map edge_group_json t.a_edges));
      ("program", J.List (List.map quantity_json t.a_program));
      ("timing", J.List (List.map quantity_json t.a_timing));
      ("unknown", strs t.a_unknown);
      ("notes", strs t.a_notes);
      ("metrics", Metrics.snapshot_json t.a_metrics) ]

let outcome_json ~name = function
  | Audited t ->
    (match json t with
     | J.Obj fields -> J.Obj (("status", J.Str "audited") :: fields)
     | j -> j)
  | Skipped reason ->
    J.Obj
      [ ("status", J.Str "skipped"); ("source", J.Str name);
        ("reason", J.Str reason) ]
  | Failed reason ->
    J.Obj
      [ ("status", J.Str "failed"); ("source", J.Str name);
        ("reason", J.Str reason) ]

let pp_quantity fmt q =
  Format.fprintf fmt "%-18s predicted %14.6g  measured %14.6g  rel_err %+.3f"
    q.q_name q.q_predicted q.q_measured q.q_rel_err

let pp fmt t =
  Format.fprintf fmt "@[<v>%s (%s): %s (tolerance %.2f)@," t.a_source
    (if t.a_tiled then "tiled" else "untiled")
    (String.uppercase_ascii (verdict_string t.a_verdict))
    t.a_tolerance;
  List.iter (fun g ->
    Format.fprintf fmt "buffer %s <- %s@," g.g_buffer g.g_array;
    List.iter (fun q -> Format.fprintf fmt "  %a@," pp_quantity q)
      g.g_quantities;
    List.iter (fun u -> Format.fprintf fmt "  %-18s (not predicted)@," u)
      g.g_unknown)
    t.a_groups;
  List.iter (fun rg ->
    Format.fprintf fmt
      "reuse %-12s irredundant %14.6g  redundant %14.6g  saved %.1f%%@,"
      rg.r_buffer rg.r_irredundant rg.r_redundant
      (100.0
      *. (rg.r_redundant -. rg.r_irredundant)
      /. Float.max 1.0 rg.r_redundant))
    t.a_reuse;
  List.iter (fun e ->
    Format.fprintf fmt "edge %s (%s)@," e.e_edge t.a_machine;
    List.iter (fun q -> Format.fprintf fmt "  %a@," pp_quantity q)
      e.e_quantities;
    List.iter (fun u -> Format.fprintf fmt "  %-18s (not predicted)@," u)
      e.e_unknown)
    t.a_edges;
  if t.a_program <> [] then begin
    Format.fprintf fmt "program@,";
    List.iter (fun q -> Format.fprintf fmt "  %a@," pp_quantity q)
      t.a_program
  end;
  if t.a_timing <> [] then begin
    Format.fprintf fmt "timing (cycles/launch)@,";
    List.iter (fun q -> Format.fprintf fmt "  %a@," pp_quantity q) t.a_timing
  end;
  List.iter (fun u -> Format.fprintf fmt "not predicted: %s@," u) t.a_unknown;
  List.iter (fun n -> Format.fprintf fmt "note: %s@," n) t.a_notes;
  (match t.a_worst with
   | Some w ->
     Format.fprintf fmt "worst offender: %s (rel_err %+.3f)@," w.q_name
       w.q_rel_err
   | None -> ());
  Format.fprintf fmt "@]"

let pp_outcome ~name fmt = function
  | Audited t -> pp fmt t
  | Skipped reason -> Format.fprintf fmt "%s: skipped (%s)" name reason
  | Failed reason -> Format.fprintf fmt "%s: FAILED (%s)" name reason
