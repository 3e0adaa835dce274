open Emsc_arith
open Emsc_ir
open Emsc_core
open Emsc_machine
open Emsc_obs

type memory_kind =
  | Phantom
  | Zeroed
  | Filled of (string * (int array -> float)) list
  | Pseudorandom

let no_params name = failwith ("unbound parameter " ^ name)

let zero_env _ = Zint.zero

let pseudorandom_fill m (p : Prog.t) =
  List.iter
    (fun (d : Prog.array_decl) ->
      Memory.fill m d.Prog.array_name (fun idx ->
        let h = Array.fold_left (fun acc i -> (acc * 31) + i) 17 idx in
        float_of_int (h mod 101) /. 101.0))
    p.Prog.arrays

let prepare ?(memory = Zeroed) ~param_env (p : Prog.t) =
  match memory with
  | Phantom -> Memory.create_phantom p ~param_env
  | Zeroed -> Memory.create p ~param_env
  | Filled inits ->
    let m = Memory.create p ~param_env in
    List.iter (fun (a, f) -> Memory.fill m a f) inits;
    m
  | Pseudorandom ->
    let m = Memory.create p ~param_env in
    pseudorandom_fill m p;
    m

type backend = [ `Seq | `Par of int ]

(* Parallel runs honor the machine's concurrent-blocks rule: at most
   [occupancy * fanout] arenas live at once, with occupancy derived
   from the block's effective scratchpad need (doubled when
   double-buffering keeps two windows resident) at the staging level.
   The machine defaults to the paper's GPU. *)
let par_cfg ?(hierarchy = Hierarchy.gtx8800) ~jobs ~double_buffer
    ~track_ownership ~block_words ?(inter_tile_reuse = false) () =
  let s = Hierarchy.staging hierarchy in
  let occ =
    Timing.occupancy hierarchy
      ~smem_bytes_per_block:
        (Hierarchy.effective_words ~double_buffer block_words
         * s.Hierarchy.l_word_bytes)
  in
  { (Emsc_runtime.Runtime.default_cfg ~jobs) with
    Emsc_runtime.Runtime.double_buffer; track_ownership;
    max_concurrent_blocks = Some (occ * s.Hierarchy.l_fanout);
    block_words; inter_tile_reuse }

let execute ~prog ?local_ref ?(locals = []) ?(mode = Exec.Sampled 6) ?memory
    ?(param_env = no_params) ?on_global ?(backend = `Seq)
    ?(double_buffer = false) ?(track_ownership = false) ?(block_words = 0) ?(inter_tile_reuse = false)
    ?hierarchy ast =
  let m = prepare ?memory ~param_env prog in
  List.iter (Memory.declare_local m) locals;
  let result =
    match backend with
    | `Seq ->
      Prof.probe "driver.execute" @@ fun () ->
      Exec.run ~prog ?local_ref ~param_env ~memory:m ~mode ?on_global ast
    | `Par jobs ->
      (* parallel execution is Full-fidelity by construction: sampling
         extrapolates from iteration deltas, a sequential notion *)
      let cfg =
        par_cfg ?hierarchy ~jobs ~double_buffer ~track_ownership
          ~block_words ~inter_tile_reuse ()
      in
      Prof.probe "driver.execute" @@ fun () ->
      Emsc_runtime.Runtime.run ~prog ?local_ref ~param_env ~memory:m
        ?on_global ~cfg ast
  in
  (m, result)

(* valuation for the plan's program: original parameters from
   [param_env], tile origins at the lower bound of the origin context
   (a point the movement code's omitted guards are valid at) *)
let plan_env (c : Pipeline.compiled) param_env =
  match c.Pipeline.tiled with
  | None -> param_env
  | Some t ->
    let tp = t.Pipeline.tiled_prog in
    let ctx = t.Pipeline.context in
    let tbl = Hashtbl.create 8 in
    Array.iteri (fun k name ->
      match Emsc_poly.Poly.var_bounds_int ctx k with
      | Some lb, _ -> Hashtbl.replace tbl name lb
      | None, _ -> ())
      tp.Prog.params;
    fun name ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None -> param_env name

(* replay one statement instance with its iterators bound as (trivial)
   loop variables, so rewritten accesses — whose buffer indices are
   expressions over the iterator names — evaluate correctly *)
let instance_call ((s : Prog.stmt), iters) =
  let module Ast = Emsc_codegen.Ast in
  let call =
    Ast.Stmt_call
      { stmt_id = s.Prog.id;
        iter_args = Array.map (fun nm -> Ast.Var nm) s.Prog.iter_names }
  in
  let rec wrap d body =
    if d < 0 then body
    else
      wrap (d - 1)
        [ Ast.Loop
            { Ast.var = s.Prog.iter_names.(d);
              lb = Ast.Const iters.(d);
              ub = Ast.Const iters.(d);
              step = Zint.one;
              par = Ast.Seq;
              body } ]
  in
  wrap (s.Prog.depth - 1) [ call ]

let simulate ?(mode = Exec.Sampled 6) ?(memory = Phantom) ?param_env
    ?on_global ?(backend = `Seq) ?(double_buffer = false)
    ?track_ownership ?hierarchy (c : Pipeline.compiled) =
  match c.Pipeline.plan with
  | None ->
    invalid_arg
      "Emsc_driver.Runner.simulate: compilation stopped before the plan"
  | Some plan ->
    let staged = c.Pipeline.options.Options.stage_data in
    let locals =
      if staged then
        List.map
          (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name)
          plan.Plan.buffered
      else []
    in
    let local_ref =
      if staged && plan.Plan.buffered <> [] then Some (Plan.local_ref plan)
      else None
    in
    (match (c.Pipeline.tiled, backend) with
     | Some t, _ ->
       let block_words =
         match backend with
         | `Seq -> 0
         | `Par _ -> (
           let env = match param_env with Some e -> e | None -> no_params in
           match Zint.to_int_exn (Plan.total_footprint plan env) with
           | words -> max 0 words
           | exception _ -> 0)
       in
       let mode = match backend with `Seq -> mode | `Par _ -> Exec.Full in
       (* chain-aware scheduling is needed exactly when the generated
          movement carries delta guards — i.e. some buffer planned with
          inter-tile reuse *)
       let inter_tile_reuse =
         staged
         && List.exists
              (fun (b : Plan.buffered) -> b.Plan.reuse <> None)
              plan.Plan.buffered
       in
       execute ~prog:t.Pipeline.tiled_prog ?local_ref ~locals ~mode ~memory
         ?param_env ?on_global ~backend ~double_buffer ?track_ownership
         ~block_words ~inter_tile_reuse ?hierarchy t.Pipeline.ast
     | None, `Par _ ->
       invalid_arg
         "Emsc_driver.Runner.simulate: the parallel backend needs a \
          generated kernel (compile with tiling)"
     | None, `Seq ->
       (* untiled: every instance in schedule order, bracketed by the
          plan's move-in and move-out code when the compile staged data *)
       let prog = c.Pipeline.prog in
       let calls =
         List.concat_map instance_call
           (Reference.instances prog
              ~param_env:(Option.value param_env ~default:no_params))
       in
       let harness =
         if staged then Plan.all_move_in plan @ calls @ Plan.all_move_out plan
         else calls
       in
       execute ~prog ?local_ref ~locals ~mode ~memory ?param_env ?on_global
         harness)

let with_runtime_report f =
  let result, roots = Prof.collect f in
  (result, Runtime_report.build roots)

let reference ?memory ?(param_env = no_params) ?on_global (p : Prog.t) =
  let m = prepare ?memory ~param_env p in
  let counters =
    Prof.probe "driver.reference" @@ fun () ->
    Reference.run p ~param_env m ?on_global ()
  in
  (m, counters)
