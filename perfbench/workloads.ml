(* The workload table, the traced/untraced protocol and the result line. *)

open Common

type run = seed:int -> seconds:float -> traced:bool -> outcome

let table : (string * run) list =
  [ ("compile-cold", Compile_cold.run);
    ("serve-mixed", Serve_mixed.run);
    ("run-kernels", Run_kernels.run) ]

let find name = List.assoc_opt name table

(* Every per-layer metric, in print order.  A layer the workload does
   not call into reports 0. *)
let layer_names =
  List.map (fun n -> (n ^ "_ms", "ms")) Stages.compile_layer_names
  @ [ ("poly.simplex_calls", "count"); ("poly.simplex_pivots", "count");
      ("poly.is_empty_calls", "count"); ("pip.bb_nodes", "count");
      ("poly.simplex_self_ms", "ms"); ("core.buffers", "count");
      ("serve.hot_ms", "ms"); ("serve.cold_ms", "ms"); ("serve.queue_ms", "ms");
      ("serve.queue_ms_tail", "ms"); ("serve.exec_ms", "ms"); ("serve.wire_ms", "ms");
      ("driver.cache.hot_hit_ratio", "ratio"); ("driver.cache.disk_hit_ratio", "ratio");
      ("driver.cache.miss_ratio", "ratio"); ("driver.cache.lookups", "count");
      ("driver.cache.stores", "count"); ("driver.cache.evictions", "count");
      ("machine.seq_ms", "ms"); ("runtime.par2_ms", "ms");
      ("runtime.par2_over_seq", "ratio"); ("machine.ns_per_access", "ns");
      ("runtime.busy_frac", "ratio"); ("runtime.idle_frac", "ratio");
      ("runtime.dma_wait_frac", "ratio"); ("runtime.overlap_frac", "ratio");
      ("machine.flops", "count"); ("machine.dma_words", "words") ]

let e2e_names =
  [ ("setup_s", "s"); ("op_ms", "ms"); ("op_ms_tail", "ms"); ("ops_per_s", "1/s");
    ("peak_rss_mb", "MiB"); ("code_size", "count"); ("moved_words", "words") ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let value_of ms name =
  match List.find_opt (fun m -> m.name = name) ms with Some m -> m.value | None -> 0.0

(* Untraced: the end-to-end metrics.  Traced: the per-layer metrics,
   and the tracing overhead as each end-to-end metric over the traced
   ops and set-ups minus the same over the untraced ones, both kinds
   interleaved in one run. *)
let measure (run : run) ~seed ~seconds ~traced =
  let o = run ~seed ~seconds ~traced in
  let metrics =
    if not traced then o.e2e
    else
      List.map (fun (n, unit_) -> metric n unit_ (value_of o.layers n)) layer_names
      @ List.map
          (fun (n, unit_) ->
            metric ("trace.overhead." ^ n) unit_ (value_of o.traced_e2e n -. value_of o.e2e n))
          e2e_names
  in
  { correct = o.failed = 0 && o.checks_ok;
    attempted = o.attempted;
    failed = o.failed;
    metrics;
    notes = o.notes }

let result_json r =
  let module J = Emsc_obs.Json in
  let number v = J.Float (if Float.is_finite v then v else 0.0) in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m -> (m.name, J.Obj [ ("value", number m.value); ("unit", J.Str m.unit_) ]))
                r.metrics) ) ])
