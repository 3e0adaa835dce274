(* Runtime event layer: ring wraparound semantics, the
   zero-cost-when-disabled discipline, the runtime-report analysis on a
   hand-built timeline, the overlap audit's asymmetric verdicts, and
   the merged compile+runtime Chrome export. *)

open Emsc_obs

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let with_events ?capacity f =
  Events.reset ();
  Events.enable ?capacity ();
  Fun.protect f ~finally:(fun () ->
    Events.disable ();
    Events.reset ();
    Events.use_default_clock ())

let block ~launch ~block phase = Events.Block { launch; block; phase }

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

(* a full ring overwrites the oldest events, reports how many it
   dropped, and keeps the survivors in emission order *)
let test_wraparound_drops_oldest () =
  with_events ~capacity:4 (fun () ->
    let r = Events.ring ~kind:Events.Exec_track "w" in
    for i = 0 to 6 do
      let t = float_of_int i in
      Events.emit r ~t0:t ~t1:(t +. 0.5) (block ~launch:0 ~block:i Events.Whole)
    done;
    match Events.drain () with
    | [ tr ] ->
      checki "dropped" 3 tr.Events.dropped;
      checki "surviving" 4 (List.length tr.Events.events);
      List.iteri (fun i e ->
        match e.Events.data with
        | Events.Block { block; _ } -> checki "oldest-first order" (3 + i) block
        | _ -> Alcotest.fail "unexpected event payload")
        tr.Events.events
    | trs -> Alcotest.failf "expected 1 track, got %d" (List.length trs))

let test_no_wraparound_no_drops () =
  with_events ~capacity:8 (fun () ->
    let r = Events.ring ~kind:Events.Dma_track "d" in
    for i = 0 to 7 do
      Events.emit r ~t0:0.0 ~t1:1.0
        (Events.Dma_transfer { launch = 0; block = i; dir = `In; words = 1.0 })
    done;
    match Events.drain () with
    | [ tr ] ->
      checki "no drops at exactly capacity" 0 tr.Events.dropped;
      checki "all kept" 8 (List.length tr.Events.events)
    | _ -> Alcotest.fail "expected 1 track")

(* ------------------------------------------------------------------ *)
(* Disabled: no events, no allocation                                  *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  with_events (fun () ->
    let r = Events.ring ~kind:Events.Exec_track "w" in
    Events.emit r ~t0:0.0 ~t1:1.0 (block ~launch:0 ~block:0 Events.Whole);
    Events.disable ();
    Events.emit r ~t0:2.0 ~t1:3.0 (block ~launch:0 ~block:1 Events.Whole);
    Events.enable ();
    match Events.drain () with
    | [ tr ] ->
      checki "only the enabled emit landed" 1 (List.length tr.Events.events)
    | _ -> Alcotest.fail "expected 1 track")

(* the instrumentation idiom: the event ring is resolved once (None
   when recording is off) and every emit site guards the record
   construction behind it, so a disabled run must not allocate at all
   on the hot path *)
let test_disabled_no_allocation () =
  Events.reset ();
  Events.disable ();
  let er =
    if Events.enabled () then Some (Events.ring ~kind:Events.Exec_track "na")
    else None
  in
  (* warm up so the loop's code path is settled before measuring *)
  (match er with
   | Some r when Events.enabled () ->
     Events.emit r ~t0:0.0 (block ~launch:0 ~block:0 Events.Whole)
   | _ -> ());
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    match er with
    | Some r when Events.enabled () ->
      Events.emit r ~t0:0.0 (block ~launch:0 ~block:i Events.Whole)
    | _ -> ()
  done;
  let dw = Gc.minor_words () -. w0 in
  checkb (Printf.sprintf "no allocation when disabled (%.0f words)" dw) true
    (dw < 64.0)

(* ------------------------------------------------------------------ *)
(* Runtime report on a hand-built timeline                             *)
(* ------------------------------------------------------------------ *)

(* worker0: compute [0,2] and [3,5] with a DMA wait [2,3] between;
   worker1: an arena wait [1,2], otherwise idle;
   dma0: one 100-word move-in [1,4];
   arena: occupancy 10 words then 4.
   Everything below is checked against pencil-and-paper arithmetic. *)
let synthetic_tracks () =
  let w0 = Events.ring ~kind:Events.Exec_track "worker0" in
  let w1 = Events.ring ~kind:Events.Exec_track "worker1" in
  let d0 = Events.ring ~kind:Events.Dma_track "dma0" in
  let ar = Events.ring ~kind:Events.Arena_track "arena" in
  Events.emit w0 ~t0:0.0 ~t1:2.0 (block ~launch:0 ~block:0 Events.Compute);
  Events.emit w0 ~t0:2.0 ~t1:3.0 (Events.Dma_wait { launch = 0; block = 1 });
  Events.emit w0 ~t0:3.0 ~t1:5.0 (block ~launch:0 ~block:1 Events.Compute);
  Events.emit w1 ~t0:1.0 ~t1:2.0 Events.Arena_wait;
  Events.emit d0 ~t0:1.0 ~t1:4.0
    (Events.Dma_transfer { launch = 0; block = 1; dir = `In; words = 100.0 });
  Events.emit ar ~t0:1.0 ~t1:1.0 (Events.Occupancy { words = 10; arenas = 1 });
  Events.emit ar ~t0:4.0 ~t1:4.0 (Events.Occupancy { words = 4; arenas = 1 });
  Events.drain ()

let test_report_arithmetic () =
  with_events (fun () ->
    let tracks = synthetic_tracks () in
    match Runtime_report.build tracks with
    | None -> Alcotest.fail "events present but no report"
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
      checkf "critical path" 4.0 r.Runtime_report.critical_path_s;
      checki "no drops" 0 r.Runtime_report.dropped_events)

let test_report_none_without_events () =
  with_events (fun () ->
    let _ = Events.ring ~kind:Events.Exec_track "w" in
    checkb "no events -> no report" true
      (Runtime_report.build (Events.drain ()) = None))

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
    critical_path_s = 1.0; dropped_events = 0 }

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
(* Merged Chrome export                                                *)
(* ------------------------------------------------------------------ *)

let trace_events j =
  match Json.member "traceEvents" j with
  | Some l -> Json.to_list l
  | None -> Alcotest.fail "no traceEvents"

let pid_of ev =
  match Json.member "pid" ev with Some (Json.Int p) -> p | _ -> -1

let test_merged_chrome () =
  Prof.reset ();
  Prof.enable ();
  Prof.enable_tree ();
  Fun.protect
    ~finally:(fun () ->
      Prof.disable_tree ();
      Prof.disable ();
      Prof.reset ())
    (fun () ->
      Prof.probe "compile" (fun () -> ());
      with_events (fun () ->
        let _ = synthetic_tracks () in
        let evs = trace_events (Events.merged_chrome_json ()) in
        checkb "has compile events (pid 1)" true
          (List.exists (fun e -> pid_of e = 1) evs);
        checkb "has runtime events (pid 2)" true
          (List.exists (fun e -> pid_of e = 2) evs);
        (* every runtime track is announced as a named thread *)
        let thread_names =
          List.filter_map (fun e ->
            if Json.member "name" e = Some (Json.Str "thread_name")
            && pid_of e = 2
            then
              match Json.member "args" e with
              | Some a ->
                (match Json.member "name" a with
                 | Some (Json.Str n) -> Some n
                 | _ -> None)
              | None -> None
            else None)
            evs
        in
        List.iter (fun n ->
          checkb (n ^ " track present") true (List.mem n thread_names))
          [ "worker0"; "worker1"; "dma0"; "arena" ];
        (* event payloads keep their identity in the lane names *)
        let names =
          List.filter_map (fun e ->
            match Json.member "name" e, Json.member "ph" e with
            | Some (Json.Str n), Some (Json.Str "X") -> Some n
            | _ -> None)
            evs
        in
        List.iter (fun n ->
          checkb (n ^ " event present") true (List.mem n names))
          [ "compute"; "dma-in"; "dma-wait"; "arena-wait"; "occupancy" ]);
      (* with the runtime rings drained away, the merged export reduces
         to exactly the compile-only document *)
      Events.reset ();
      let merged = Json.to_string (Events.merged_chrome_json ()) in
      let compile_only =
        Json.to_string
          (Json.Obj
             [ ("traceEvents",
                Json.List (Prof.chrome_events ()));
               ("displayTimeUnit", Json.Str "ms") ])
      in
      Alcotest.(check string) "events-off export is compile-only" compile_only
        merged)

let () =
  Alcotest.run "events"
    [ ( "ring",
        [ Alcotest.test_case "wraparound drops oldest" `Quick
            test_wraparound_drops_oldest;
          Alcotest.test_case "exact capacity keeps all" `Quick
            test_no_wraparound_no_drops ] );
      ( "disabled",
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
