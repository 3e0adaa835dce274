(** The read-only view of {!Prof}'s labeled values, which
    {!Prof.add}, {!Prof.gauge_max} and {!Prof.observe} record.

    A {!snapshot} reads every value per (name, labels), summed over
    label stacks; {!diff} subtracts an earlier snapshot from a later
    one, which is how callers attribute traffic to one phase of a
    longer run.  Snapshots serialize to JSON with a stable ordering. *)

type labels = Prof.labels

type value = Prof.value =
  | Counter of float
  | Gauge of float  (** the maximum recorded *)
  | Histogram of { count : int; sum : float; buckets : (int * int) list }
      (** [(bucket exponent, count)], ascending; underflow is
          exponent [min_int], rendered as ["le0"] in JSON *)

type sample = {
  m_name : string;
  m_labels : labels;  (** sorted by key *)
  m_value : value;
}

type snapshot = {
  at_s : float;       (** {!Prof.now} at capture *)
  samples : sample list;  (** sorted by (name, labels) *)
}

val snapshot : unit -> snapshot
(** Empty when nothing was recorded since the last {!Prof.reset}. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff earlier later]: counters and histograms subtract (clamped at
    zero), gauges take the later value; metrics absent earlier pass
    through unchanged.  [at_s] is the later snapshot's. *)

val find : ?labels:labels -> snapshot -> string -> value option
(** Look up one metric in a snapshot. *)

val counter_value : ?labels:labels -> snapshot -> string -> float
(** The counter's value, or [0.] when absent (or not a counter). *)

val quantile : value -> float -> float option
(** [quantile v q] estimates the [q]-quantile (clamped to [0,1]) of a
    {!Histogram} by linear interpolation inside the log2 bucket that
    crosses rank [q*count]: bucket [k] spans [(2^(k-1), 2^k]] and the
    underflow bucket is exactly [0].  Coarse above (log-scale
    resolution) but monotone in [q].  [None] for non-histograms or
    empty histograms. *)

val snapshot_json : snapshot -> Json.t
(** [{"at_s": ..., "metrics": [{"name","labels","type",...}]}] with
    samples in snapshot order.  Histograms carry [p50]/[p95]/[p99]
    fields (from {!quantile}) alongside count/sum/buckets. *)

(** {!Prof.enable}, {!Prof.disable} and {!Prof.reset}, kept while
    [perfbench/run_kernels.ml] calls them; they go with ROADMAP item
    2's perfbench change. *)

val enable : unit -> unit
val disable : unit -> unit
val reset : unit -> unit
