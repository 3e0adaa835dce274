(* The runtime timeline on the Prof span tree: the zero-cost-when-
   disabled discipline of its probes, the runtime-report analysis of a
   hand-built timeline, the overlap audit's asymmetric verdicts, and the
   one Chrome export with the compile spans on pid 1 and the runtime's
   lanes on pid 2. *)

open Emsc_obs

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* a scripted clock: [at t] makes every reading return [t] until the
   next [at], so a span opened after [at t0] and closed after [at t1]
   covers exactly [t0, t1] *)
let clock = ref 0.0
let at t = clock := t

let with_fake_clock f =
  Prof.set_clock (fun () -> !clock);
  let was_on = Prof.enabled () in
  Prof.reset ();
  Fun.protect f ~finally:(fun () ->
    if not was_on then Prof.disable ();
    Prof.reset ();
    Prof.use_default_clock ())

(* the span [name] over [t0, t1] around [body] *)
let span ?(args = []) name t0 t1 body =
  at t0;
  Prof.probe name ~args:(fun () -> args) (fun () ->
    body ();
    at t1)

let ids launch block =
  [ ("launch", Json.Int launch); ("block", Json.Int block) ]

let lane name key i t0 t1 body =
  span name t0 t1 body ~args:[ (key, Json.Int i) ]

let occupancy t words arenas =
  span "occupancy" t t ignore
    ~args:[ ("words", Json.Int words); ("arenas", Json.Int arenas) ]

(* ------------------------------------------------------------------ *)
(* Disabled: no spans, no allocation                                   *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  with_fake_clock (fun () ->
    let (), roots =
      Prof.collect (fun () ->
        span "block" 0.0 1.0 ignore ~args:(ids 0 0);
        Prof.disable ();
        span "block" 2.0 3.0 ignore ~args:(ids 0 1);
        Prof.enable ())
    in
    checki "only the enabled span landed" 1 (List.length roots))

(* the runtime's instrumentation idioms: a fully applied [wrap] and a
   span opened only behind [Prof.enabled], so a run with probes off
   must not allocate at all on the hot path *)
let test_disabled_no_allocation () =
  let was_on = Prof.enabled () in
  Prof.disable ();
  Fun.protect ~finally:(fun () -> if was_on then Prof.enable ()) @@ fun () ->
  let words = ref 0 in
  let body i = words := !words + i in
  let step i =
    Prof.wrap "arena-wait" body i;
    if Prof.enabled () then
      Prof.probe "occupancy" ignore ~args:(fun () ->
        [ ("words", Json.Int !words); ("arenas", Json.Int i) ])
  in
  step 0;
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    step i
  done;
  let dw = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "no allocation when disabled (%.0f words)" dw) true
    (dw < 64.0)

(* ------------------------------------------------------------------ *)
(* Runtime report on a hand-built timeline                             *)
(* ------------------------------------------------------------------ *)

(* worker0: compute [0,2] and [3,5] with a DMA wait [2,3] between;
   worker1: an arena wait [1,2] sampling 10 words, otherwise idle;
   dma0: one 100-word move-in [1,4], then a 4-word sample at 4.
   Everything below is checked against pencil-and-paper arithmetic. *)
let synthetic_timeline () =
  lane "runtime.worker" "worker" 0 0.0 5.0 (fun () ->
    span "compute" 0.0 2.0 ignore ~args:(ids 0 0);
    span "dma-wait" 2.0 3.0 ignore ~args:(ids 0 1);
    span "compute" 3.0 5.0 ignore ~args:(ids 0 1));
  lane "runtime.worker" "worker" 1 1.0 2.0 (fun () ->
    span "arena-wait" 1.0 2.0 (fun () -> occupancy 1.0 10 1));
  lane "runtime.dma" "channel" 0 1.0 4.0 (fun () ->
    span "dma-in" 1.0 4.0 (fun () -> Prof.add "words" 100.0) ~args:(ids 0 1);
    occupancy 4.0 4 1)

let test_report_arithmetic () =
  with_fake_clock (fun () ->
    let (), roots = Prof.collect synthetic_timeline in
    match Runtime_report.build roots with
    | None -> Alcotest.fail "spans present but no report"
    | Some r ->
      checkf "window" 5.0 r.Runtime_report.window_s;
      (match r.Runtime_report.domains with
       | [ d0; d1 ] ->
         checkf "worker0 busy" 4.0 d0.Runtime_report.d_busy_s;
         checkf "worker0 dma-wait" 1.0 d0.Runtime_report.d_dma_wait_s;
         checkf "worker0 idle" 0.0 d0.Runtime_report.d_idle_s;
         checki "worker0 blocks" 2 d0.Runtime_report.d_blocks;
         (* an arena wait is neither busy nor a DMA wait *)
         checkf "worker1 idle" 5.0 d1.Runtime_report.d_idle_s;
         checki "worker1 blocks" 0 d1.Runtime_report.d_blocks
       | ds -> Alcotest.failf "expected 2 domains, got %d" (List.length ds));
      checkf "compute busy (union)" 4.0 r.Runtime_report.compute_busy_s;
      checkf "dma busy" 3.0 r.Runtime_report.dma_busy_s;
      checkf "dma words" 100.0 r.Runtime_report.dma_words;
      (* [1,4] ∩ ([0,2] ∪ [3,5]) = [1,2] ∪ [3,4] *)
      checkf "overlap" 2.0 r.Runtime_report.overlap_s;
      checkf "overlap fraction" (2.0 /. 3.0)
        r.Runtime_report.overlap_fraction;
      checki "occupancy samples" 2 (List.length r.Runtime_report.occupancy);
      checki "peak words" 10 r.Runtime_report.occupancy_peak_words;
      checki "peak arenas" 1 r.Runtime_report.occupancy_peak_arenas;
      (* one launch; block 1's envelope spans its DMA [1,4], wait [2,3]
         and compute [3,5] -> [1,5], longer than block 0's [0,2] *)
      checkf "critical path" 4.0 r.Runtime_report.critical_path_s)

let test_report_none_without_events () =
  with_fake_clock (fun () ->
    checkb "no spans -> no report" true (Runtime_report.build [] = None);
    (* a compile span and an empty worker job hold no timeline span *)
    let (), roots =
      Prof.collect (fun () ->
        span "driver.plan" 0.0 1.0 ignore;
        lane "runtime.worker" "worker" 0 1.0 2.0 ignore)
    in
    checki "both spans collected" 2 (List.length roots);
    checkb "no timeline -> no report" true (Runtime_report.build roots = None))

(* ------------------------------------------------------------------ *)
(* Overlap audit verdicts                                              *)
(* ------------------------------------------------------------------ *)

module O = Emsc_audit.Overlap
module A = Emsc_audit.Audit

(* a report skeleton for verdict cases that real interval data cannot
   produce (measured overlap is a true intersection, so it can only
   exceed the bound if the accounting itself is broken) *)
let fake_report ~compute ~dma ~fraction =
  { Runtime_report.window_s = 10.0; domains = [];
    compute_busy_s = compute; dma_busy_s = dma; dma_words = 1.0;
    overlap_s = fraction *. dma; overlap_fraction = fraction;
    occupancy = []; occupancy_peak_words = 0; occupancy_peak_arenas = 0;
    critical_path_s = 1.0 }

let test_audit_verdicts () =
  (* consistent measurement under the bound: pass *)
  let pass = O.audit ~double_buffer:false
      (fake_report ~compute:4.0 ~dma:3.0 ~fraction:0.66)
  in
  checkb "pass" true (pass.O.o_verdict = A.Pass && O.ok pass);
  checkf "bound is min(1, compute/dma)" 1.0 pass.O.o_bound;
  (* measured overlap above the model upper bound: the accounting is
     unsound and the audit must fail *)
  let fail = O.audit ~double_buffer:true
      (fake_report ~compute:0.5 ~dma:1.0 ~fraction:0.9)
  in
  checkf "tight bound" 0.5 fail.O.o_bound;
  checkb "fail above bound" true (fail.O.o_verdict = A.Fail && not (O.ok fail));
  (* within tolerance of the bound: still a pass *)
  let near = O.audit ~tolerance:0.05 ~double_buffer:false
      (fake_report ~compute:0.5 ~dma:1.0 ~fraction:0.54)
  in
  checkb "tolerance absorbs skew" true (near.O.o_verdict = A.Pass);
  (* double buffering that achieved almost none of the promised
     overlap: warn, never fail (1-core CI is the expected cause) *)
  let warn = O.audit ~double_buffer:true
      (fake_report ~compute:4.0 ~dma:3.0 ~fraction:0.01)
  in
  checkb "db shortfall warns" true (warn.O.o_verdict = A.Warn && O.ok warn);
  (* same shortfall without double buffering requested: nothing was
     promised, so pass *)
  let nodb = O.audit ~double_buffer:false
      (fake_report ~compute:4.0 ~dma:3.0 ~fraction:0.01)
  in
  checkb "no-db shortfall passes" true (nodb.O.o_verdict = A.Pass);
  (* no DMA at all: vacuous pass with an explanatory note *)
  let vac = O.audit ~double_buffer:true
      (fake_report ~compute:4.0 ~dma:0.0 ~fraction:0.0)
  in
  checkb "vacuous pass" true (vac.O.o_verdict = A.Pass);
  checkb "vacuous note" true (vac.O.o_notes <> []);
  (* the JSON rendering carries the verdict for bench-compare *)
  (match Json.member "verdict" (O.json fail) with
   | Some (Json.Str "fail") -> ()
   | _ -> Alcotest.fail "json verdict missing")

(* ------------------------------------------------------------------ *)
(* One Chrome export                                                   *)
(* ------------------------------------------------------------------ *)

let trace_events j =
  match Json.member "traceEvents" j with
  | Some l -> Json.to_list l
  | None -> Alcotest.fail "no traceEvents"

let pid_of ev =
  match Json.member "pid" ev with Some (Json.Int p) -> p | _ -> -1

let test_merged_chrome () =
  with_fake_clock (fun () ->
    Prof.enable ();
    Prof.enable_tree ();
    Fun.protect ~finally:Prof.disable_tree @@ fun () ->
    span "compile" 0.0 0.5 ignore;
    let compile_only =
      Json.to_string
        (Json.Obj
           [ ("traceEvents", Json.List (Prof.chrome_events (Prof.roots ())));
             ("displayTimeUnit", Json.Str "ms") ])
    in
    (* with no lane spans the export is exactly the compile tree *)
    Alcotest.(check string) "runtime-free export is compile-only" compile_only
      (Json.to_string (Runtime_report.chrome_json ()));
    (* inside a tree session the collected spans stay for the export *)
    let (), _ = Prof.collect synthetic_timeline in
    let evs = trace_events (Runtime_report.chrome_json ()) in
    checkb "has compile events (pid 1)" true
      (List.exists (fun e -> pid_of e = 1) evs);
    checkb "no lane span on pid 1" false
      (List.exists (fun e ->
         pid_of e = 1 && Json.member "name" e = Some (Json.Str "compute"))
         evs);
    (* every runtime track is announced as a named thread *)
    let arg k e =
      match Json.member "args" e with Some a -> Json.member k a | None -> None
    in
    let thread_names =
      List.filter_map (fun e ->
        if Json.member "name" e = Some (Json.Str "thread_name") && pid_of e = 2
        then match arg "name" e with Some (Json.Str n) -> Some n | _ -> None
        else None)
        evs
    in
    Alcotest.(check (list string)) "tracks in order"
      [ "worker0"; "worker1"; "dma0"; "arena" ] thread_names;
    let named n =
      List.filter (fun e ->
        Json.member "name" e = Some (Json.Str n)
        && Json.member "ph" e = Some (Json.Str "X") && pid_of e = 2)
        evs
    in
    List.iter (fun n ->
      checkb (n ^ " event present") true (named n <> []))
      [ "compute"; "dma-in"; "dma-wait"; "arena-wait"; "occupancy" ];
    checkb "dma-in carries its words" true
      (List.for_all (fun e -> arg "words" e = Some (Json.Float 100.0))
         (named "dma-in"));
    (* the samples sit on the arena track only *)
    checki "occupancy once each" 2 (List.length (named "occupancy"));
    checkb "occupancy on the arena track" true
      (List.for_all (fun e -> Json.member "tid" e = Some (Json.Int 4))
         (named "occupancy")))

let () =
  Alcotest.run "runtime_report"
    [ ( "disabled",
        [ Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "no allocation" `Quick
            test_disabled_no_allocation ] );
      ( "report",
        [ Alcotest.test_case "arithmetic" `Quick test_report_arithmetic;
          Alcotest.test_case "none without events" `Quick
            test_report_none_without_events ] );
      ( "audit",
        [ Alcotest.test_case "verdicts" `Quick test_audit_verdicts ] );
      ( "chrome",
        [ Alcotest.test_case "merged export" `Quick test_merged_chrome ] ) ]
