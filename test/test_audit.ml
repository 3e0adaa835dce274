(* Cost-model audit: predicted-vs-measured drift on real kernels, the
   per-buffer metrics attribution it relies on, and the bench-compare
   regression gate. *)

open Emsc_core
open Emsc_machine
open Emsc_driver
open Emsc_obs
module A = Emsc_audit.Audit
module BC = Emsc_audit.Bench_compare

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let parse_exn s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let matmul_src =
  {|
  array A[24][24];
  array B[24][24];
  array C[24][24];
  for (i = 0; i <= 23; i++) {
    for (j = 0; j <= 23; j++) {
      for (k = 0; k <= 23; k++) {
        C[i][j] += A[i][k] * B[k][j];
      }
    }
  }
  |}

let compile_matmul () =
  match
    Pipeline.compile_source ~cache:(Cache.in_memory ())
      (Source.Text { name = "matmul-audit"; text = matmul_src })
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e)

(* --- auditing a real untiled kernel ----------------------------------- *)

let test_untiled_pass () =
  let c = compile_matmul () in
  checkb "auditable" true (A.auditable c);
  match A.audit_compiled c with
  | A.Skipped r -> Alcotest.failf "skipped: %s" r
  | A.Failed r -> Alcotest.failf "failed: %s" r
  | A.Audited t ->
    checkb "untiled" false t.A.a_tiled;
    Alcotest.check Alcotest.string "verdict" "pass"
      (A.verdict_string t.A.a_verdict);
    checkb "has buffer groups" true (t.A.a_groups <> []);
    checkb "has program quantities" true (t.A.a_program <> []);
    checkb "has timing quantities" true (t.A.a_timing <> []);
    let all =
      t.A.a_program @ t.A.a_timing
      @ List.concat_map (fun g -> g.A.g_quantities) t.A.a_groups
    in
    List.iter (fun q ->
      checkb (q.A.q_name ^ " within tolerance") true
        (Float.abs q.A.q_rel_err <= t.A.a_tolerance);
      (* movement predictions are upper bounds: never under-predict *)
      if q.A.q_name = "move_in_words" || q.A.q_name = "move_out_words" then
        checkb (q.A.q_name ^ " is an upper bound") true (q.A.q_rel_err >= 0.0))
      all;
    checkb "run metrics captured" true (t.A.a_metrics.Metrics.samples <> []);
    (* the report round-trips through JSON with its status marker *)
    let j = parse_exn (Json.to_string (A.outcome_json ~name:"matmul-audit"
                                         (A.Audited t))) in
    checkb "status" true (Json.member "status" j = Some (Json.Str "audited"));
    checkb "verdict field" true
      (Json.member "verdict" j = Some (Json.Str "pass"));
    checkb "groups field" true (Json.member "groups" j <> None)

let test_suite_ok () =
  let outcomes =
    List.map (fun (job : Pipeline.job) ->
      (Source.name job.Pipeline.source, A.audit_job ~cache:(Cache.in_memory ()) job))
      (Emsc_kernels.Suite.jobs ())
  in
  List.iter (fun (name, o) ->
    checkb (name ^ " audit ok") true (A.ok o)) outcomes;
  (* at least one kernel actually gets audited (not all skipped) *)
  checkb "some audited" true
    (List.exists (fun (_, o) -> match o with A.Audited _ -> true | _ -> false)
       outcomes)

let test_metrics_state_restored () =
  Prof.reset ();
  Prof.disable ();
  let c = compile_matmul () in
  (match A.audit_compiled c with
   | A.Audited _ -> ()
   | _ -> Alcotest.fail "expected an audited outcome");
  checkb "registry disabled again after audit" false (Prof.enabled ());
  (* nothing leaked into the (disabled) registry for later callers *)
  Prof.reset ();
  checki "registry empty" 0 (List.length (Metrics.snapshot ()).Metrics.samples)

(* --- per-buffer movement attribution in the interpreter --------------- *)

let test_exec_attribution () =
  let c = compile_matmul () in
  let plan =
    match c.Pipeline.plan with
    | Some p -> p
    | None -> Alcotest.fail "no plan"
  in
  let run () =
    let harness = Plan.all_move_in plan @ Plan.all_move_out plan in
    let locals =
      List.map (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name)
        plan.Plan.buffered
    in
    ignore
      (Runner.execute ~prog:c.Pipeline.prog ~local_ref:(Plan.local_ref plan)
         ~locals ~mode:Exec.Full ~memory:Runner.Zeroed harness)
  in
  Prof.reset ();
  Prof.disable ();
  run ();
  checki "disabled run records nothing" 0
    (List.length (Metrics.snapshot ()).Metrics.samples);
  Prof.enable ();
  Fun.protect
    ~finally:(fun () -> Prof.disable (); Prof.reset ())
    (fun () ->
      let snap0 = Metrics.snapshot () in
      run ();
      let d = Metrics.diff snap0 (Metrics.snapshot ()) in
      let copies = Metrics.counter_value d "exec.copies" in
      checkb "copies counted" true (copies > 0.0);
      (* every copy in the staging harness crosses the global/local
         boundary, so per-buffer words sum back to the copy total *)
      let per_buffer =
        List.fold_left (fun acc (b : Plan.buffered) ->
          let labels = [ ("buffer", b.Plan.buffer.Alloc.local_name) ] in
          acc
          +. Metrics.counter_value ~labels d "exec.move_in_words"
          +. Metrics.counter_value ~labels d "exec.move_out_words")
          0.0 plan.Plan.buffered
      in
      Alcotest.check (Alcotest.float 0.0) "per-buffer words = copies" copies
        per_buffer;
      checkb "occupancy recorded" true
        (Metrics.find d "exec.scratchpad_occupancy_total_words" <> None))

(* --- bench-compare gating --------------------------------------------- *)

let artifact figs kernels =
  Json.Obj
    [ ("schema", Json.Str "emsc-bench/1");
      ("figure_wall_ms", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) figs));
      ( "kernel_counters",
        Json.Obj
          (List.map (fun (k, (ld, st)) ->
             ( k,
               Json.Obj
                 [ ("global_loads", Json.Float ld);
                   ("global_stores", Json.Float st) ] ))
             kernels) ) ]

let compare_exn ?wall_tolerance ?move_tolerance old_a new_a =
  match BC.compare ?wall_tolerance ?move_tolerance old_a new_a with
  | Ok r -> r
  | Error e -> Alcotest.failf "compare: %s" e

let base () =
  artifact
    [ ("figure2", 100.0); ("figure3", 40.0) ]
    [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0)) ]

let test_compare_identical () =
  let r = compare_exn (base ()) (base ()) in
  checkb "ok" true (BC.ok r);
  checki "no regressions" 0 (List.length r.BC.r_regressions);
  checki "all unchanged" 4 r.BC.r_unchanged;
  checki "nothing missing" 0 (List.length r.BC.r_missing)

let test_compare_movement_regression () =
  (* +2% global words on one kernel: inside the wall tolerance, outside
     the (tight) movement tolerance — the gate must trip *)
  let worse =
    artifact
      [ ("figure2", 100.0); ("figure3", 40.0) ]
      [ ("matmul", (1020.0, 510.0)); ("me", (2000.0, 100.0)) ]
  in
  let r = compare_exn (base ()) worse in
  checkb "regressed" false (BC.ok r);
  (match r.BC.r_regressions with
   | [ c ] ->
     Alcotest.check Alcotest.string "key" "matmul" c.BC.c_key;
     Alcotest.check Alcotest.string "metric" "global_words" c.BC.c_metric;
     checkb "ratio > 1" true (c.BC.c_ratio > 1.01)
   | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* the same artifact passes when the movement gate is loosened *)
  checkb "loose tolerance passes" true
    (BC.ok (compare_exn ~move_tolerance:0.05 (base ()) worse))

let test_compare_wall_regression () =
  let worse =
    artifact
      [ ("figure2", 200.0); ("figure3", 40.0) ]
      [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0)) ]
  in
  let r = compare_exn (base ()) worse in
  checkb "2x wall time regresses" false (BC.ok r);
  match r.BC.r_regressions with
  | [ c ] -> Alcotest.check Alcotest.string "metric" "wall_ms" c.BC.c_metric
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_compare_missing_and_added () =
  let next =
    artifact
      [ ("figure2", 100.0) ]
      [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0));
        ("conv2d", (7.0, 7.0)) ]
  in
  let r = compare_exn (base ()) next in
  checkb "lost measurement fails" false (BC.ok r);
  checkb "missing names the figure" true
    (List.mem "figure3/wall_ms" r.BC.r_missing);
  checkb "added names the kernel" true
    (List.mem "conv2d/global_words" r.BC.r_added)

let test_compare_improvement () =
  let better =
    artifact
      [ ("figure2", 10.0); ("figure3", 40.0) ]
      [ ("matmul", (1000.0, 500.0)); ("me", (2000.0, 100.0)) ]
  in
  let r = compare_exn (base ()) better in
  checkb "improvement keeps ok" true (BC.ok r);
  checki "one improvement" 1 (List.length r.BC.r_improvements);
  (* report JSON carries the gate result *)
  let j = parse_exn (Json.to_string (BC.json r)) in
  checkb "ok field" true (Json.member "ok" j = Some (Json.Bool true))

let test_compare_malformed () =
  match BC.compare (Json.Obj [ ("schema", Json.Str "emsc-bench/1") ]) (base ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "artifact without sections must be rejected"

(* solver work in the compile_profile section is gated at zero
   tolerance: one extra pivot fails, even with wall time unchanged *)
let with_solver_work ~calls ~pivots ~nodes a =
  let counters = Json.Obj [ ("simplex.pivots", Json.Float pivots) ] in
  let profile =
    Json.Obj
      [ ("schema", Json.Str "emsc-compile-profile/1");
        ( "passes",
          Json.Obj
            [ ( "simplex.minimize",
                Json.Obj
                  [ ("calls", Json.Int calls); ("self_ms", Json.Float 5.0) ] )
            ] );
        ( "stacks",
          Json.List
            [ Json.Obj
                [ ("stack", Json.Str "driver.plan;simplex.minimize");
                  ("calls", Json.Int calls); ("counters", counters) ];
              Json.Obj
                [ ("stack", Json.Str "driver.plan;pip.minimize");
                  ("calls", Json.Int 1);
                  ( "counters",
                    Json.Obj [ ("pip.nodes", Json.Float nodes) ] ) ] ] ) ]
  in
  match a with
  | Json.Obj fields -> Json.Obj (fields @ [ ("compile_profile", profile) ])
  | _ -> assert false

let test_compare_solver_work () =
  let old_a = with_solver_work ~calls:100 ~pivots:500.0 ~nodes:7.0 (base ()) in
  let same = with_solver_work ~calls:100 ~pivots:500.0 ~nodes:7.0 (base ()) in
  checkb "same work passes" true (BC.ok (compare_exn old_a same));
  let one_more =
    with_solver_work ~calls:100 ~pivots:501.0 ~nodes:7.0 (base ())
  in
  let r = compare_exn old_a one_more in
  checkb "one extra pivot fails" false (BC.ok r);
  (match r.BC.r_regressions with
   | [ c ] ->
     Alcotest.check Alcotest.string "key" "simplex.pivots" c.BC.c_key;
     Alcotest.check Alcotest.string "metric" "solver_work" c.BC.c_metric
   | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  let fewer = with_solver_work ~calls:99 ~pivots:480.0 ~nodes:7.0 (base ()) in
  checkb "less work passes" true (BC.ok (compare_exn old_a fewer));
  let r = compare_exn (base ()) old_a in
  checkb "absent in old passes" true (BC.ok r);
  List.iter (fun k ->
    checkb (k ^ " added") true (List.mem (k ^ "/solver_work") r.BC.r_added))
    [ "simplex.minimize.calls"; "simplex.pivots"; "pip.nodes" ]

let () =
  Alcotest.run "audit"
    [ ( "audit",
        [ Alcotest.test_case "untiled-pass" `Quick test_untiled_pass;
          Alcotest.test_case "suite-ok" `Slow test_suite_ok;
          Alcotest.test_case "metrics-state" `Quick test_metrics_state_restored;
          Alcotest.test_case "exec-attribution" `Quick test_exec_attribution ]
      );
      ( "bench-compare",
        [ Alcotest.test_case "identical" `Quick test_compare_identical;
          Alcotest.test_case "movement-regression" `Quick
            test_compare_movement_regression;
          Alcotest.test_case "wall-regression" `Quick
            test_compare_wall_regression;
          Alcotest.test_case "missing+added" `Quick
            test_compare_missing_and_added;
          Alcotest.test_case "improvement" `Quick test_compare_improvement;
          Alcotest.test_case "malformed" `Quick test_compare_malformed;
          Alcotest.test_case "solver-work" `Quick test_compare_solver_work ]
      ) ]
