(* compile-cold: one caller in a closed loop compiles the op set over
   and over with the pass cache off, so every op pays the solver stack
   (poly/simplex, pip, arith, core.Plan) and nothing else. *)

open Emsc_driver
open Common

let capacity_words =
  Emsc_machine.Hierarchy.staging_capacity_words Emsc_machine.Hierarchy.gtx8800

type setup = { ops : Inputs.cold_input array; jobs : Pipeline.job array; warmed : int }

(* Set-up: generate the inputs, then compile the warm-up inputs (not
   part of the timed set) once. *)
let setup ~seed () =
  let ops, jobs, warmup =
    Spans.with_span "setup.inputs" (fun () ->
      let ops, warmup = Inputs.compile_cold ~seed in
      (ops, Array.map Inputs.cold_job ops, warmup))
  in
  let warmed =
    Spans.with_span "setup.warmup" (fun () ->
      List.length
        (List.filter
           (fun i -> Result.is_ok (Pipeline.compile (Inputs.cold_job i)))
           warmup))
  in
  { ops; jobs; warmed }

(* Tile origins at the lower bound of their context, other parameters
   from the input (the valuation the plan invariants are checked at). *)
let invariant_env (c : Pipeline.compiled) param_env =
  match c.Pipeline.tiled with
  | None -> param_env
  | Some t ->
    let tp = t.Pipeline.tiled_prog in
    let tbl = Hashtbl.create 8 in
    Array.iteri
      (fun k name ->
        match Emsc_poly.Poly.var_bounds_int t.Pipeline.context k with
        | Some lb, _ -> Hashtbl.replace tbl name lb
        | None, _ -> ())
      tp.Emsc_ir.Prog.params;
    fun name ->
      match Hashtbl.find_opt tbl name with Some v -> v | None -> param_env name

(* Every distinct input is executed against the reference interpreter
   and its plan checked against the static invariants. *)
let verify_input input (c : Pipeline.compiled) =
  let param_env = Inputs.cold_param_env input in
  match Emsc_check.Oracle.check_compiled ~param_env c with
  | Error r -> Error ("oracle: " ^ r)
  | Ok () -> (
    match c.Pipeline.plan with
    | None -> Error "no plan"
    | Some plan -> (
      let env = invariant_env c param_env in
      match
        Emsc_check.Invariants.check ~capacity_words
          ~optimized_movement:c.Pipeline.options.Options.optimize_movement ~env plan
      with
      | [] -> Ok ()
      | v :: _ ->
        Error (Format.asprintf "invariants: %a" Emsc_check.Invariants.pp_violation v)))

(* Global words moved by the tiled kernels of one pass, run in full on
   the sequential simulator. *)
let moved_words compiled =
  Array.fold_left
    (fun acc c ->
      match c with
      | Some ({ Pipeline.tiled = Some _; _ } as c) ->
        let _, r =
          Runner.simulate ~mode:Emsc_machine.Exec.Full ~memory:Runner.Pseudorandom c
        in
        acc +. Emsc_machine.Exec.total_global r.Emsc_machine.Exec.totals
      | _ -> acc)
    0.0 compiled

(* One kind of op of a run: an untraced op compiles through
   [Pipeline.compile]; a traced op calls the stage functions one by one
   inside spans, with the library's profiler on.  Each input's first
   output of a kind is kept; every repeat must reproduce it. *)
type 'a side = {
  first : 'a option array;
  lat : float list array;  (** ms per input *)
  mutable wall : float;  (** summed op intervals, s *)
  mutable ops : int;
}

let side n = { first = Array.make n None; lat = Array.make n []; wall = 0.0; ops = 0 }

let record sd bad ~same i r dt =
  sd.wall <- sd.wall +. dt;
  sd.ops <- sd.ops + 1;
  match r with
  | Error _ -> bad.(i) <- true
  | Ok out -> (
    sd.lat.(i) <- (dt *. 1000.0) :: sd.lat.(i);
    match sd.first.(i) with
    | None -> sd.first.(i) <- Some out
    | Some f -> if not (same f out) then bad.(i) <- true)

let verified_ms sd bad =
  List.concat (List.filteri (fun i _ -> not bad.(i)) (Array.to_list sd.lat))

let run ~seed ~seconds ~traced =
  Spans.reset ();
  let s, before_u, before_t =
    Spans.setups ~times:4 ~traced ~setup:(setup ~seed) ~discard:ignore
  in
  let n = Array.length s.ops in
  (* The timed phase runs whole passes over the op set, so every input
     weighs the same in every run.  A traced run alternates traced and
     untraced ops in one timed phase, flipping the parity each pass:
     host drift then hits both kinds alike, and after two passes every
     input has been compiled both ways. *)
  let passes = if traced then 2 else 1 in
  let traced_op k = traced && ((k mod n) + (k / n)) mod 2 = 1 in
  let bad = Array.make n false in
  let plain = side n and staged = side n in
  let pass_solver = ref Stages.no_solver in
  Emsc_obs.Prof.reset ();
  (* the timed phase starts from a collected heap, so the set-ups'
     garbage is not collected during the first ops *)
  Gc.full_major ();
  let deadline = now () +. seconds in
  let k = ref 0 in
  while !k < passes * n || now () < deadline || !k mod n <> 0 do
    let i = !k mod n in
    if traced_op !k then begin
      Spans.set_op !k;
      Spans.on := true;
      Emsc_obs.Prof.enable ();
      let r, dt = timed (fun () -> Stages.compile s.jobs.(i)) in
      Emsc_obs.Prof.disable ();
      Spans.on := false;
      record staged bad ~same:Stages.same i r dt
    end
    else begin
      let r, dt = timed (fun () -> Pipeline.compile s.jobs.(i)) in
      record plain bad i r dt ~same:(fun (a : Pipeline.compiled) b ->
        Stages.same a.Pipeline.plan b.Pipeline.plan
        && Stages.same a.Pipeline.tiled b.Pipeline.tiled)
    end;
    incr k;
    (* the first two passes trace every input exactly once *)
    if traced && !k = 2 * n then
      pass_solver := Stages.solver_of_profile (Emsc_obs.Prof.snapshot ())
  done;
  let peak_rss_mb = peak_rss_mb () in
  let trace_mb = Spans.retained_mb () in
  let all_solver =
    if traced then Stages.solver_of_profile (Emsc_obs.Prof.snapshot ())
    else Stages.no_solver
  in
  let _, after_u, after_t =
    Spans.setups ~times:5 ~traced ~setup:(setup ~seed) ~discard:ignore
  in
  let spans = Spans.all () in
  (* verification, outside the timed phase: every input's pipeline
     output is executed and checked, and a traced op's staged output
     must equal it *)
  let compiled =
    Array.mapi
      (fun i c ->
        match c, staged.first.(i) with
        | Some c, Some st when not (Stages.agrees st c) -> None
        | c, _ -> c)
      plain.first
  in
  Array.iteri
    (fun i c ->
      match c with
      | None -> bad.(i) <- true
      | Some c -> (
        match verify_input s.ops.(i) c with
        | Ok () -> ()
        | Error m ->
          bad.(i) <- true;
          prerr_endline (Printf.sprintf "compile-cold: input %d: %s" i m)))
    compiled;
  let code_size, buffers =
    Array.fold_left
      (fun (cs, bs) c ->
        match c with
        | Some c -> (cs + Stages.code_size c, bs + Stages.buffers c)
        | None -> (cs, bs))
      (0, 0) compiled
  in
  let moved_words = moved_words compiled in
  (* the outputs of both kinds are the same verified compilations, so
     code size and moved words are too *)
  let side_e2e sd setup_s ~peak_rss_mb =
    e2e ~setup_s ~op_ms:(verified_ms sd bad) ~wall_s:sd.wall ~peak_rss_mb ~code_size
      ~moved_words
  in
  let e2e = side_e2e plain (median (before_u @ after_u)) ~peak_rss_mb in
  let traced_e2e =
    if traced then
      side_e2e staged (median (before_t @ after_t)) ~peak_rss_mb:(peak_rss_mb +. trace_mb)
    else []
  in
  let layers =
    if not traced then []
    else
      Stages.compile_layers ~compiles:staged.ops ~spans
        ~solver:{ !pass_solver with simplex_self_ms = all_solver.simplex_self_ms }
        ~per_pass_buffers:buffers
  in
  if traced then Spans.write (Filename.concat (scratch_dir ()) "trace-compile-cold.json") spans;
  let attempted = plain.ops + staged.ops in
  let verified = List.length (verified_ms plain bad) + List.length (verified_ms staged bad) in
  let tiled = Array.fold_left (fun a i -> if Inputs.is_tiled i then a + 1 else a) 0 s.ops in
  { attempted;
    failed = attempted - verified;
    checks_ok = true;
    e2e;
    traced_e2e;
    layers;
    notes =
      [ Printf.sprintf "compile-cold: %d inputs (%d tiled), %d ops in %d passes (%d traced), %d warm-up compiles"
          n tiled attempted (attempted / n) staged.ops s.warmed;
        tail_note ~n:(List.length (verified_ms plain bad)) (verified_ms plain bad) ] }
