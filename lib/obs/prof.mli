(** Hierarchical self-profiler and span tracer for the compiler and
    runtime hot paths — the one probe API.

    Answers "where does time go?" with caller attribution: each probe
    pushes a label on a per-domain stack and accumulates wall time,
    call and error counts keyed by the full stack, so the same pass
    (say Fourier–Motzkin projection) is costed separately under
    dependence analysis and under code generation.  This aggregate is
    always on while probes are enabled, and its memory is bounded by
    the number of distinct label stacks, never by the call count.

    The same probes optionally feed a second sink, the span tree
    ({!enable_tree}): one timed node per probe with its args and
    counters, exported as Chrome [trace_event] JSON by
    {!Events.merged_chrome_json}.  Its memory grows with the call
    count, so only a single traced command turns it on.

    Follows the [Events] discipline: disabled by default, every entry
    point tests one boolean first, and the disabled path of the
    [wrap]/[wrap2]/[add] forms performs no allocation — safe to leave
    in the hottest loops.  Domain-safe: each domain owns its own stack
    and tables; [snapshot] and [roots] merge them all.

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
(** Drop all recorded data, aggregate and tree, from every domain. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (seconds); for deterministic tests. *)

val use_default_clock : unit -> unit

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

val add : string -> float -> unit
(** [add name v] bumps counter [name] attributed to the current label
    stack (e.g. simplex pivots under whichever pass triggered them),
    and to the innermost open span of the tree.  No-op when
    disabled. *)

(** {2 Snapshots} *)

type frame = {
  f_stack : string list;  (** labels, outermost first *)
  f_calls : int;
  f_errors : int;         (** calls that exited by an exception *)
  f_total_s : float;      (** inclusive wall seconds *)
  f_self_s : float;       (** total minus probed children, clamped at 0 *)
  f_counters : (string * float) list;  (** sorted by name *)
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

val top_self : ?k:int -> profile -> pass list
(** First [k] (default 15) of [passes]. *)

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

val chrome_events : unit -> Json.t list
(** One complete (["ph":"X"]) Chrome [trace_event] per span, pid 1,
    depth first; timestamps and durations in microseconds, counters
    merged after the args in the event's [args]. *)
