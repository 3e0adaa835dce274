(* The compiler self-profiler: zero-cost-when-disabled discipline,
   hierarchical accumulation with exact call counts under a 4-domain
   hammer, exact call counts at the poly call-sites, deterministic
   collapsed-stack export for a fixed compile, histogram quantiles, and
   bench-compare regression attribution. *)

open Emsc_obs
module BC = Emsc_audit.Bench_compare

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

let with_prof f =
  Prof.reset ();
  Prof.enable ();
  Fun.protect f ~finally:(fun () ->
    Prof.disable ();
    Prof.reset ();
    Prof.use_default_clock ())

(* each clock read advances 1 ms, so every probe "takes" exactly the
   reads its dynamic extent performs — fully deterministic *)
let install_fake_clock () =
  let t = ref 0.0 in
  Prof.set_clock (fun () ->
    t := !t +. 0.001;
    !t)

let frame prof stack =
  match List.find_opt (fun f -> f.Prof.f_stack = stack) prof with
  | Some f -> f
  | None ->
    Alcotest.failf "no frame for stack %s" (String.concat ";" stack)

(* ------------------------------------------------------------------ *)
(* Disabled: no output, no allocation                                  *)
(* ------------------------------------------------------------------ *)

(* top-level so the [wrap]/[wrap2] call-sites are fully applied: the
   disabled path must not build a closure *)
let na_impl x = x + 1
let na2_impl x y = x + y

let test_disabled_records_nothing () =
  Prof.reset ();
  Prof.disable ();
  checki "wrap still runs the function" 42 (Prof.wrap "na" na_impl 41);
  checki "wrap2 still runs the function" 42 (Prof.wrap2 "na" na2_impl 40 2);
  ignore (Prof.probe "p" (fun () -> 7));
  Prof.add "c" 1.0;
  Prof.gauge_max "g" 1.0;
  Prof.observe "h" 1.0;
  checki "nothing recorded while disabled" 0 (List.length (Prof.snapshot ()));
  checki "no values while disabled" 0 (List.length (Prof.values ()));
  checks "collapsed is empty" "" (Prof.collapsed (Prof.snapshot ()))

let test_disabled_no_allocation () =
  Prof.reset ();
  Prof.disable ();
  (* warm up so the loop's code path is settled before measuring *)
  ignore (Prof.wrap "prof.na" na_impl 0);
  ignore (Prof.wrap2 "prof.na2" na2_impl 0 1);
  Prof.add "prof.na.counter" 1.0;
  let labels = [ ("k", "v") ] in
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    ignore (Prof.wrap "prof.na" na_impl i);
    ignore (Prof.wrap2 "prof.na2" na2_impl i 1);
    Prof.add "prof.na.counter" 1.0;
    Prof.add ~labels "prof.na.counter" 1.0;
    Prof.gauge_max "prof.na.gauge" 1.0;
    Prof.gauge_max ~labels "prof.na.gauge" 1.0;
    Prof.observe "prof.na.hist" 1.0;
    Prof.observe ~labels "prof.na.hist" 1.0
  done;
  let dw = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "no allocation when disabled (%.0f words)" dw) true
    (dw < 64.0)

(* ------------------------------------------------------------------ *)
(* Hierarchical accumulation                                           *)
(* ------------------------------------------------------------------ *)

let test_caller_attribution_and_self_time () =
  with_prof (fun () ->
    install_fake_clock ();
    (* clock reads: outer t0 @1ms, inner t0 @2ms, inner pop @3ms,
       outer pop @4ms — inner records 1 ms, outer spans 3 ms *)
    Prof.probe "outer" (fun () ->
      Prof.probe "inner" (fun () -> Prof.add "ticks" 3.0));
    (* the same leaf under a different caller accumulates separately *)
    Prof.probe "other" (fun () -> Prof.probe "inner" (fun () -> ()));
    let prof = Prof.snapshot () in
    checki "four distinct stacks" 4 (List.length prof);
    let outer = frame prof [ "outer" ] in
    checki "outer calls" 1 outer.Prof.f_calls;
    checkf "outer total spans the child's reads" 0.003 outer.Prof.f_total_s;
    checkf "outer self excludes the probed child" 0.002 outer.Prof.f_self_s;
    let inner = frame prof [ "outer"; "inner" ] in
    checkf "inner total" 0.001 inner.Prof.f_total_s;
    checkf "inner self = total (leaf)" 0.001 inner.Prof.f_self_s;
    checkf "counter attributed to the full stack" 3.0
      (List.assoc "ticks" inner.Prof.f_counters);
    checkb "counter absent under the other caller" true
      (List.assoc_opt "ticks" (frame prof [ "other"; "inner" ]).Prof.f_counters
       = None);
    checkf "attributed = both roots" 0.006 (Prof.attributed_s prof);
    (* per-pass aggregation merges the two "inner" stacks *)
    let inner_pass =
      List.find (fun p -> p.Prof.p_name = "inner") (Prof.passes prof)
    in
    checki "pass calls summed across callers" 2 inner_pass.Prof.p_calls;
    checkf "pass self summed across callers" 0.002 inner_pass.Prof.p_self_s)

(* one table, two views: a frame reads each counter under its stack
   summed over labels, the Metrics view reads it per label summed over
   stacks *)
let test_labeled_counter_both_views () =
  with_prof (fun () ->
    Prof.probe "outer" (fun () ->
      Prof.add ~labels:[ ("ch", "0") ] "words" 3.0;
      Prof.add ~labels:[ ("ch", "1") ] "words" 4.0;
      Prof.probe "inner" (fun () -> Prof.add ~labels:[ ("ch", "1") ] "words" 5.0));
    Prof.add ~labels:[ ("ch", "0") ] "words" 1.0;
    let prof = Prof.snapshot () in
    checkf "outer frame sums its labels" 7.0
      (List.assoc "words" (frame prof [ "outer" ]).Prof.f_counters);
    checkf "inner frame keeps its own" 5.0
      (List.assoc "words" (frame prof [ "outer"; "inner" ]).Prof.f_counters);
    let snap = Metrics.snapshot () in
    checkf "ch0 over stacks, the empty one included" 4.0
      (Metrics.counter_value ~labels:[ ("ch", "0") ] snap "words");
    checkf "ch1 over stacks" 9.0
      (Metrics.counter_value ~labels:[ ("ch", "1") ] snap "words");
    checkb "no unlabeled sample" true (Metrics.find snap "words" = None))

let test_exception_still_records () =
  with_prof (fun () ->
    install_fake_clock ();
    (try Prof.probe "boom" (fun () -> failwith "x") with Failure _ -> ());
    let f = frame (Prof.snapshot ()) [ "boom" ] in
    checki "errored probe counted" 1 f.Prof.f_calls;
    checkb "errored probe timed" true (f.Prof.f_total_s > 0.0);
    (* the stack was popped: a later probe is a root, not a child *)
    Prof.probe "after" (fun () -> ());
    ignore (frame (Prof.snapshot ()) [ "after" ]))

(* [args] feed the span tree only: the thunk must not run while probes
   or the tree are off, and runs exactly once per recorded node *)
let test_args_thunk_only_with_tree () =
  let calls = ref 0 in
  let args () =
    incr calls;
    [ ("k", Json.Int 7) ]
  in
  Prof.reset ();
  Prof.disable ();
  ignore (Prof.probe ~args "off" (fun () -> 1));
  checki "probes off: thunk not called" 0 !calls;
  with_prof (fun () ->
    ignore (Prof.probe ~args "no-tree" (fun () -> 1));
    checki "tree off: thunk not called" 0 !calls;
    Prof.enable_tree ();
    Fun.protect ~finally:Prof.disable_tree (fun () ->
      ignore (Prof.probe ~args "tree" (fun () -> 1));
      checki "tree on: thunk called once" 1 !calls;
      match List.filter (fun n -> n.Prof.name = "tree") (Prof.roots ()) with
      | [ n ] ->
        checkb "args land on the node" true (n.Prof.args = [ ("k", Json.Int 7) ])
      | ns -> Alcotest.failf "expected one tree node, got %d" (List.length ns)))

let test_four_domain_hammer_exact_counts () =
  with_prof (fun () ->
    let iters = 1000 in
    let work () =
      for _ = 1 to iters do
        Prof.probe "outer" (fun () ->
          Prof.probe "inner" (fun () -> Prof.add "ticks" 1.0))
      done
    in
    let domains = List.init 4 (fun _ -> Domain.spawn work) in
    List.iter Domain.join domains;
    let prof = Prof.snapshot () in
    let outer = frame prof [ "outer" ] in
    let inner = frame prof [ "outer"; "inner" ] in
    checki "outer calls exact across domains" (4 * iters) outer.Prof.f_calls;
    checki "inner calls exact across domains" (4 * iters) inner.Prof.f_calls;
    checkf "counter total exact across domains"
      (float_of_int (4 * iters))
      (List.assoc "ticks" inner.Prof.f_counters))

(* ------------------------------------------------------------------ *)
(* Call counts at the poly call-sites                                  *)
(* ------------------------------------------------------------------ *)

let test_poly_calls_in_passes () =
  let open Emsc_poly in
  with_prof (fun () ->
    let box =
      Poly.of_ineqs ~dim:2
        [ [ 1; 0; 0 ]; [ -1; 0; 7 ]; [ 0; 1; 0 ]; [ 0; -1; 7 ] ]
    in
    Prof.probe "t" (fun () ->
      ignore (Poly.is_empty box);
      ignore (Poly.is_empty box);
      ignore (Poly.eliminate_dim box 1);
      ignore (Poly.remove_redundant box));
    let passes = Prof.passes (Prof.snapshot ()) in
    let calls name =
      match List.find_opt (fun p -> p.Prof.p_name = name) passes with
      | Some p -> p.Prof.p_calls
      | None -> Alcotest.failf "no pass %s" name
    in
    (* 2 explicit calls + the one remove_redundant makes internally *)
    checki "poly.is_empty calls" 3 (calls "poly.is_empty");
    checki "poly.eliminate_dim calls" 1 (calls "poly.eliminate_dim");
    checki "poly.remove_redundant calls" 1 (calls "poly.remove_redundant"))

(* ------------------------------------------------------------------ *)
(* Deterministic collapsed export for a fixed compile                  *)
(* ------------------------------------------------------------------ *)

let compile_once () =
  let open Emsc_driver in
  Prof.reset ();
  install_fake_clock ();
  (match
     Pipeline.compile ~cache:Cache.off (Emsc_kernels.Matmul.job ~n:16 ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e));
  Prof.collapsed (Prof.snapshot ())

let test_collapsed_deterministic_for_fixed_compile () =
  with_prof (fun () ->
    let first = compile_once () in
    let second = compile_once () in
    checkb "collapsed output non-trivial" true (String.length first > 0);
    checks "identical across identical compiles" first second;
    let lines = String.split_on_char '\n' (String.trim first) in
    List.iter (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed collapsed line %S" line
      | Some i ->
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        checkb
          (Printf.sprintf "integer self-µs in %S" line)
          true
          (match int_of_string_opt v with Some n -> n >= 0 | None -> false))
      lines;
    checkb "driver stages present" true
      (List.exists
         (fun l -> String.length l >= 7 && String.sub l 0 7 = "driver.")
         lines))

(* ------------------------------------------------------------------ *)
(* Solver work on the kernel suite, pinned                              *)
(* ------------------------------------------------------------------ *)

(* Exact LP calls, pivots and branch-and-bound nodes for one cold
   compile of every suite kernel.  Arithmetic and pivot-cost changes
   must leave all three unchanged: they move only when a change alters
   which LPs are solved or which pivots Bland's rule takes. *)
let test_suite_solver_work_pinned () =
  let open Emsc_driver in
  with_prof (fun () ->
    List.iter (fun job ->
      match Pipeline.compile ~cache:Cache.off job with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "compile failed: %s" (Frontend.error_message e))
      (Emsc_kernels.Suite.jobs ());
    let prof = Prof.snapshot () in
    let leaf f = List.nth f.Prof.f_stack (List.length f.Prof.f_stack - 1) in
    let calls name =
      List.fold_left (fun acc f ->
        if leaf f = name then acc + f.Prof.f_calls else acc) 0 prof
    in
    let counter name =
      List.fold_left (fun acc f ->
        acc + int_of_float
                (Option.value ~default:0.0
                   (List.assoc_opt name f.Prof.f_counters))) 0 prof
    in
    checki "simplex.minimize calls" 3510 (calls "simplex.minimize");
    checki "simplex.pivots" 50157 (counter "simplex.pivots");
    checki "pip.nodes" 639 (counter "pip.nodes"))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantiles () =
  with_prof (fun () ->
      (* values 1..8 fill buckets 0..3 as 1,1,2,4 observations *)
      for v = 1 to 8 do
        Prof.observe "q" (float_of_int v)
      done;
      let h =
        match Metrics.find (Metrics.snapshot ()) "q" with
        | Some v -> v
        | None -> Alcotest.fail "histogram not recorded"
      in
      let q p =
        match Metrics.quantile h p with
        | Some v -> v
        | None -> Alcotest.fail "quantile on a histogram"
      in
      (* rank 4 of 8 lands at the top of bucket (2,4] *)
      checkf "p50" 4.0 (q 0.5);
      (* rank 7.92 interpolates inside (4,8] *)
      checkf "p99" 7.92 (q 0.99);
      checkb "monotone in q" true (q 0.5 <= q 0.95 && q 0.95 <= q 0.99);
      checkb "counters have no quantiles" true
        (Metrics.quantile (Metrics.Counter 3.0) 0.5 = None);
      (* the JSON rendering carries the fields *)
      let j = Metrics.snapshot_json (Metrics.snapshot ()) in
      let s = Json.to_string j in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl
          && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "p50 rendered" true (contains "\"p50\"" s);
      checkb "p95 rendered" true (contains "\"p95\"" s);
      checkb "p99 rendered" true (contains "\"p99\"" s))

(* ------------------------------------------------------------------ *)
(* Bench-compare regression attribution                                *)
(* ------------------------------------------------------------------ *)

let artifact ~wall ~passes =
  Json.Obj
    [ ( "figure_wall_ms",
        Json.Obj [ ("figA", Json.Float wall) ] );
      ( "kernel_counters",
        Json.Obj
          [ ( "k",
              Json.Obj
                [ ("global_loads", Json.Float 10.0);
                  ("global_stores", Json.Float 10.0) ] ) ] );
      ( "compile_profile",
        Json.Obj
          [ ("schema", Json.Str "emsc-compile-profile/1");
            ( "passes",
              Json.Obj
                (List.map (fun (name, self_ms) ->
                   ( name,
                     Json.Obj
                       [ ("calls", Json.Int 1);
                         ("total_ms", Json.Float self_ms);
                         ("self_ms", Json.Float self_ms) ] ))
                   passes) ) ] ) ]

let compare_exn old_j new_j =
  match BC.compare old_j new_j with
  | Ok r -> r
  | Error e -> Alcotest.failf "compare failed: %s" e

let test_attribution_names_regressed_pass () =
  let old_j =
    artifact ~wall:100.0
      ~passes:[ ("poly.is_empty", 10.0); ("simplex.minimize", 40.0) ]
  in
  let new_j =
    artifact ~wall:300.0 (* 3x: past the default 0.5 wall tolerance *)
      ~passes:
        [ ("poly.is_empty", 12.0); (* within tolerance: not named *)
          ("simplex.minimize", 200.0); (* the offender *)
          ("scan.uset", 50.0) (* absent in old: tolerated as added *) ]
  in
  let r = compare_exn old_j new_j in
  checkb "wall regression fired" false (BC.ok r);
  (match r.BC.r_attribution with
   | [ c ] ->
     checks "offending pass named" "simplex.minimize" c.BC.c_key;
     checks "attribution metric" "pass_self_ms" c.BC.c_metric;
     checkf "old self" 40.0 c.BC.c_old;
     checkf "new self" 200.0 c.BC.c_new
   | l -> Alcotest.failf "expected exactly 1 attribution, got %d"
            (List.length l));
  checkb "absent-in-old pass tolerated as added" true
    (List.mem "scan.uset/pass_self_ms" r.BC.r_added);
  checkb "absent-in-old pass never attributed" true
    (List.for_all (fun c -> c.BC.c_key <> "scan.uset") r.BC.r_attribution);
  (* the failure message itself names the pass *)
  let msg = Format.asprintf "%a" BC.pp r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl
      && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "pp names the offender" true (contains "simplex.minimize" msg);
  checkb "pp labels the attribution" true (contains "ATTRIBUTION" msg)

let test_no_attribution_without_wall_regression () =
  let old_j = artifact ~wall:100.0 ~passes:[ ("poly.is_empty", 10.0) ] in
  let new_j =
    (* pass self time exploded but wall stayed put: profiles alone
       must neither fail the gate nor produce attribution noise *)
    artifact ~wall:101.0 ~passes:[ ("poly.is_empty", 90.0) ]
  in
  let r = compare_exn old_j new_j in
  checkb "still ok" true (BC.ok r);
  checki "no attribution without a wall regression" 0
    (List.length r.BC.r_attribution)

let test_attribution_tolerates_missing_profile () =
  (* an old artifact that predates the profiler has no compile_profile
     section at all: the comparison must still work, with every new
     pass surfacing as added *)
  let old_j =
    Json.Obj
      [ ("figure_wall_ms", Json.Obj [ ("figA", Json.Float 100.0) ]);
        ( "kernel_counters",
          Json.Obj
            [ ( "k",
                Json.Obj
                  [ ("global_loads", Json.Float 10.0);
                    ("global_stores", Json.Float 10.0) ] ) ] ) ]
  in
  let new_j = artifact ~wall:300.0 ~passes:[ ("poly.is_empty", 50.0) ] in
  let r = compare_exn old_j new_j in
  checkb "wall regression still fires" false (BC.ok r);
  checki "nothing attributable without an old profile" 0
    (List.length r.BC.r_attribution);
  checkb "new coverage surfaces as added" true
    (List.mem "poly.is_empty/pass_self_ms" r.BC.r_added)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prof"
    [ ( "disabled",
        [ Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "no allocation" `Quick
            test_disabled_no_allocation ] );
      ( "hierarchy",
        [ Alcotest.test_case "caller attribution and self time" `Quick
            test_caller_attribution_and_self_time;
          Alcotest.test_case "labeled counter in both views" `Quick
            test_labeled_counter_both_views;
          Alcotest.test_case "exception still records" `Quick
            test_exception_still_records;
          Alcotest.test_case "args thunk only with the tree" `Quick
            test_args_thunk_only_with_tree;
          Alcotest.test_case "4-domain hammer, exact counts" `Quick
            test_four_domain_hammer_exact_counts ] );
      ( "poly",
        [ Alcotest.test_case "call counts from passes" `Quick
            test_poly_calls_in_passes ] );
      ( "export",
        [ Alcotest.test_case "collapsed deterministic for a fixed compile"
            `Quick test_collapsed_deterministic_for_fixed_compile ] );
      ( "solver-work",
        [ Alcotest.test_case "kernel suite counts pinned" `Quick
            test_suite_solver_work_pinned ] );
      ( "metrics",
        [ Alcotest.test_case "histogram quantiles" `Quick
            test_metrics_quantiles ] );
      ( "bench-compare",
        [ Alcotest.test_case "attribution names the regressed pass" `Quick
            test_attribution_names_regressed_pass;
          Alcotest.test_case "no attribution without wall regression" `Quick
            test_no_attribution_without_wall_regression;
          Alcotest.test_case "tolerates a profile-less old artifact" `Quick
            test_attribution_tolerates_missing_profile ] ) ]
