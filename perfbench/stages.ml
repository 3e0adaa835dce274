(* The pipeline's stage functions called one by one, in pipeline order,
   each inside a span named after its layer.  Used by traced runs to
   split compile time by layer; [agrees] checks the result against
   [Pipeline.compile] of the same job. *)

open Emsc_driver
open Emsc_transform

type staged = {
  band : Hyperplanes.band option;
  plan : Emsc_core.Plan.t;
  ast : Emsc_codegen.Ast.stm list option;
}

let compile (jb : Pipeline.job) : (staged, string) result =
  let o = jb.Pipeline.options in
  let span = Spans.with_span in
  match span "lang.parse" (fun () -> Frontend.load jb.Pipeline.source) with
  | Error e -> Error (Frontend.error_message e)
  | Ok (prog, _digest) -> (
    try
      let deps = span "ir.deps" (fun () -> Emsc_ir.Deps.analyze prog) in
      let band =
        if o.Options.find_band then
          span "transform.band" (fun () ->
            match Hyperplanes.find_band prog deps with
            | b -> Some b
            | exception Invalid_argument _ -> None)
        else None
      in
      let spec =
        match o.Options.tiling with
        | Options.No_tiling -> None
        | Options.Spec s -> Some s
        | Options.Search _ -> invalid_arg "tile-size search is not staged"
      in
      let pre =
        Option.map
          (fun spec ->
            span "transform.tile" (fun () ->
              (spec, Tile.tile_program prog spec, Tile.origin_context prog spec)))
          spec
      in
      let plan_input, param_context =
        match pre with Some (_, tp, ctx) -> (tp, Some ctx) | None -> (prog, None)
      in
      let inter_tile =
        match pre with
        | Some (spec, _, _) when o.Options.inter_tile_reuse ->
          Tile.inter_tile_origin prog spec
        | _ -> None
      in
      let plan =
        span "core.plan" (fun () ->
          Emsc_core.Plan.plan_block ~arch:o.Options.arch
            ~merge_per_array:o.Options.merge_per_array ~delta:o.Options.delta
            ~optimize_movement:o.Options.optimize_movement ?param_context
            ?inter_tile plan_input)
      in
      let movement =
        if o.Options.stage_data then
          List.map
            (fun (b : Emsc_core.Plan.buffered) ->
              (b.Emsc_core.Plan.move_in, b.Emsc_core.Plan.move_out))
            plan.Emsc_core.Plan.buffered
        else []
      in
      let ast =
        Option.map
          (fun (spec, _, _) ->
            span "transform.codegen" (fun () -> Tile.generate prog spec ~movement))
          pre
      in
      Ok { band; plan; ast }
    with Failure m | Invalid_argument m -> Error m)

let same a b = try compare a b = 0 with Invalid_argument _ -> false

(* The staged result equals the pipeline's band, plan and kernel. *)
let agrees (s : staged) (c : Pipeline.compiled) =
  same s.band c.Pipeline.band
  && (match c.Pipeline.plan with Some p -> same s.plan p | None -> false)
  && same s.ast (Option.map (fun t -> t.Pipeline.ast) c.Pipeline.tiled)

let rec count_stms stms = List.fold_left (fun n s -> n + count_stm s) 0 stms

and count_stm = function
  | Emsc_codegen.Ast.Loop l -> 1 + count_stms l.Emsc_codegen.Ast.body
  | Emsc_codegen.Ast.Guard (_, body) -> 1 + count_stms body
  | _ -> 1

(* Generated statements of one compilation: kernel AST plus every
   buffer's move-in and move-out code. *)
let code_size (c : Pipeline.compiled) =
  let kernel =
    match c.Pipeline.tiled with Some t -> count_stms t.Pipeline.ast | None -> 0
  in
  List.fold_left
    (fun n (mi, mo) -> n + count_stms mi + count_stms mo)
    kernel c.Pipeline.movement

let buffers (c : Pipeline.compiled) =
  match c.Pipeline.plan with
  | Some p -> List.length p.Emsc_core.Plan.buffered
  | None -> 0

(* Solver work from the library's own profiler snapshot. *)
type solver = {
  simplex_calls : int;
  simplex_pivots : float;
  is_empty_calls : int;
  bb_nodes : float;
  simplex_self_ms : float;
}

let solver_of_profile prof =
  let module P = Emsc_obs.Prof in
  let passes = P.passes prof in
  let pass name =
    List.find_opt (fun p -> p.P.p_name = name) passes
  in
  let calls name = match pass name with Some p -> p.P.p_calls | None -> 0 in
  let counter name =
    List.fold_left
      (fun acc f ->
        acc +. (try List.assoc name f.P.f_counters with Not_found -> 0.0))
      0.0 prof
  in
  { simplex_calls = calls "simplex.minimize";
    simplex_pivots = counter "simplex.pivots";
    is_empty_calls = calls "poly.is_empty";
    bb_nodes = counter "pip.nodes";
    simplex_self_ms =
      (match pass "simplex.minimize" with
       | Some p -> p.P.p_self_s *. 1000.0
       | None -> 0.0) }

let no_solver =
  { simplex_calls = 0; simplex_pivots = 0.0; is_empty_calls = 0;
    bb_nodes = 0.0; simplex_self_ms = 0.0 }

let compile_layer_names =
  [ "lang.parse"; "ir.deps"; "transform.band"; "transform.tile"; "core.plan";
    "transform.codegen" ]

(* Per-compile self time of each compile layer, plus solver work. *)
let compile_layers ~compiles ~spans ~(solver : solver) ~per_pass_buffers =
  let tbl = Spans.self_ms_by_name spans in
  let per x = if compiles > 0 then x /. float_of_int compiles else 0.0 in
  List.map
    (fun n -> Common.metric (n ^ "_ms") "ms" (per (Spans.self_ms tbl n)))
    compile_layer_names
  @ [ Common.metric "poly.simplex_calls" "count" (float_of_int solver.simplex_calls);
      Common.metric "poly.simplex_pivots" "count" solver.simplex_pivots;
      Common.metric "poly.is_empty_calls" "count" (float_of_int solver.is_empty_calls);
      Common.metric "pip.bb_nodes" "count" solver.bb_nodes;
      Common.metric "poly.simplex_self_ms" "ms" (per solver.simplex_self_ms);
      Common.metric "core.buffers" "count" (float_of_int per_pass_buffers) ]
