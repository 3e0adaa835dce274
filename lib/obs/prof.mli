(** Hierarchical self-profiler, span tracer and metrics registry for
    the compiler and runtime hot paths — the one instrumentation API.

    Answers "where does time go?" with caller attribution: each probe
    pushes a label on a per-domain stack and accumulates wall time,
    call and error counts keyed by the full stack, so the same pass
    (say Fourier–Motzkin projection) is costed separately under
    dependence analysis and under code generation.  This aggregate is
    always on while probes are enabled, and its memory is bounded by
    the number of distinct label stacks, never by the call count.

    The same probes optionally feed a second sink, the span tree
    ({!enable_tree}, or {!collect} around one region): one timed node
    per probe with its args and counters, exported as Chrome
    [trace_event] JSON by {!Runtime_report.chrome_json}, which also
    reads the runtime's per-domain timeline from it.  Its memory grows
    with the call count, so only a single traced command turns it on.

    Labeled values (counters, gauge-max, log2 histograms) are recorded
    under the current label stack too, switched by the same flag.  A
    {!frame} reads its stack's counters summed over labels; {!values}
    (rendered by {!Metrics}) reads every value summed over stacks.

    Disabled by default, every entry point tests one boolean first,
    and the disabled path of the
    [wrap]/[wrap2]/[add]/[gauge_max]/[observe] forms performs no
    allocation — safe to leave in the hottest loops.  Domain-safe: each
    domain owns its own stack and tables; [snapshot], [values] and
    [roots] merge them all.

    Snapshots export three ways: a collapsed-stack string that
    external flamegraph tools (flamegraph.pl, speedscope, inferno)
    accept directly; a top-K self-time table; and the
    ["compile_profile"] JSON section embedded in bench artifacts and
    [emsc profile]/[analyze --json] output, which
    {!Emsc_audit.Bench_compare} diffs for regression attribution. *)

(** {2 Lifecycle} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Also forced on at startup when the [EMSC_PROF] environment
    variable is set to anything but [""], ["0"] or ["false"] — lets CI
    run an unmodified binary profiled for the overhead budget check. *)

val disable : unit -> unit

val enable_tree : unit -> unit
(** Also record the span tree.  Probes still record only while
    {!enabled}. *)

val disable_tree : unit -> unit

val reset : unit -> unit
(** Drop all recorded data, values included, from every domain. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (seconds); for deterministic tests. *)

val use_default_clock : unit -> unit

val now : unit -> float

(** {2 Recording} *)

val probe :
  ?args:(unit -> (string * Json.t) list) -> string -> (unit -> 'a) -> 'a
(** [probe name f] runs [f] with [name] pushed on this domain's label
    stack, accumulating one call and its wall time under the full
    stack.  Exceptions still record (as an error) and re-raise.
    [args] annotate the span-tree node only: the thunk is called once,
    when the node opens, and never while probes or the tree are off.
    Disabled: calls [f] directly (the closures at the call-site are the
    only cost). *)

val wrap : string -> ('a -> 'b) -> 'a -> 'b
(** [wrap name f x]: like [probe] but fully applied, so a hot
    call-site [let g x = Prof.wrap "g" g_impl x] allocates nothing
    when profiling is off. *)

val wrap2 : string -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c

type labels = (string * string) list
(** Label pairs; order does not matter (keys are canonicalized). *)

val add : ?labels:labels -> string -> float -> unit
(** [add name v] bumps counter [name] attributed to the current label
    stack (e.g. simplex pivots under whichever pass triggered them),
    and to the innermost open span of the tree.  No-op when
    disabled. *)

val span_add : string -> float -> unit
(** [span_add name v] bumps counter [name] of the innermost open span
    of the tree only: no value and no frame counter records it, so a
    fact another value already carries is not counted twice.  No-op
    when disabled or when no span of the tree is open. *)

val gauge_max : ?labels:labels -> string -> float -> unit
(** [gauge_max name v] keeps the largest value recorded — e.g. peak
    scratchpad occupancy. *)

val observe : ?labels:labels -> string -> float -> unit
(** [observe name v] adds [v] to a log2 histogram: bucket [k] counts
    [2^(k-1) < v <= 2^k], and [v <= 0] lands in bucket [min_int].  A
    key keeps the kind it was first recorded with. *)

(** {2 Snapshots} *)

type frame = {
  f_stack : string list;  (** labels, outermost first *)
  f_calls : int;
  f_errors : int;         (** calls that exited by an exception *)
  f_total_s : float;      (** inclusive wall seconds *)
  f_self_s : float;       (** total minus probed children, clamped at 0 *)
  f_counters : (string * float) list;
      (** each counter under this stack, summed over labels; sorted by
          name *)
}

type profile = frame list
(** Sorted by stack, so a fixed workload under a fixed clock snapshots
    deterministically. *)

val snapshot : unit -> profile
(** Merge every domain's tables.  Establish a happens-before edge
    (join your domains) before trusting cross-domain numbers. *)

val attributed_s : profile -> float
(** Total wall seconds under root (depth-1) frames — the denominator
    for "how much of the pipeline is attributed". *)

(** {2 Values} *)

type value =
  | Counter of float
  | Gauge of float  (** the maximum recorded *)
  | Histogram of { count : int; sum : float; buckets : (int * int) list }

val values : unit -> (string * labels * value) list
(** Every value per (name, sorted labels), unordered, merged over
    stacks (the empty one included) and domains: counters add,
    gauge-max takes the maximum, histograms add bucket by bucket. *)

(** {2 Per-pass aggregation} *)

type pass = {
  p_name : string;   (** leaf label, summed across all stacks *)
  p_calls : int;
  p_errors : int;
  p_total_s : float;
  p_self_s : float;
  p_counters : (string * float) list;  (** sorted by name *)
}

val passes : profile -> pass list
(** Aggregated by leaf label, sorted by self time (descending). *)

(** {2 Export} *)

val collapsed : profile -> string
(** Collapsed-stack text: one ["a;b;c <self µs>"] line per stack. *)

val write_collapsed : string -> profile -> unit

val pp_top : ?k:int -> Format.formatter -> profile -> unit
(** Human top-K self-time table plus an attributed-total footer. *)

val json : ?wall_ms:float -> profile -> Json.t
(** The ["compile_profile"] artifact section
    (schema [emsc-compile-profile/1]): [attributed_ms], per-pass
    [passes] (calls / total_ms / self_ms, keyed by leaf label) and the
    full [stacks] list. *)

val pass_timings_json : profile -> Json.t
(** The ["pass_timings"] report section: one
    [{name, calls, errors, total_ms, counters}] row per leaf label,
    sorted by descending total time.  [errors] counts calls that
    exited by an exception, so a consumer can tell a clean run from a
    partially-failed one. *)

(** {2 The span tree} *)

type node = {
  name : string;
  args : (string * Json.t) list;
      (** the probe's [args], plus ["error"] when it raised *)
  start_s : float;          (** seconds, from the clock *)
  dur_s : float;
  counters : (string * float) list;  (** sorted by name *)
  children : node list;     (** in start order *)
}

val roots : unit -> node list
(** Completed top-level spans of every domain, in start order.  Open
    spans are not included. *)

val collect : (unit -> 'a) -> 'a * node list
(** [collect f] runs [f] with probes and the span tree on, and returns
    the top-level spans completed during [f] on every domain, in start
    order — among them the roots of jobs [f] ran on other domains.  Both
    flags are restored afterwards, also when [f] raises.  When the tree
    was off, these spans are then dropped from the retained tree, so
    repeated calls retain none; when it was on, they stay for the
    enclosing trace.  Frames and values [f] records stay in the
    registry.  Establish a happens-before edge with the domains [f]
    used (join them, or await their jobs) before [f] returns, and keep
    other domains from probing meanwhile: their spans would be taken
    too. *)

val chrome_events : ?pid:int -> ?tid:int -> node list -> Json.t list
(** One complete (["ph":"X"]) Chrome [trace_event] per span of the
    given trees (say, {!roots}), depth first, on [pid]/[tid] (default
    1/1); timestamps and durations in microseconds, counters merged
    after the args in the event's [args]. *)
