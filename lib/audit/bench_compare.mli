(** Regression gating between two bench artifacts.

    Compares the [figure_wall_ms] (wall-clock per figure),
    [kernel_counters] (simulated global-memory words per kernel) and
    [runtime_wall_ms] (parallel-backend wall per kernel/series)
    sections of two [BENCH_<timestamp>.json] files, plus the
    [runtime_report] section's overlap-audit verdicts (a report whose
    overlap audit fails where the baseline's passed — or where the
    baseline had none that failed — is a regression on its own).  Wall
    time is machine-dependent, so it gets its own — typically
    generous — tolerance; movement volume is deterministic and is
    gated tightly; the runtime section is gated loosest of all (domain
    scheduling on shared CI hosts is noisy).  The [transfer_volume]
    section (full- vs delta-mode movement words from the inter-tile
    reuse figure) is deterministic and gated with the movement
    tolerance, so delta movement creeping back toward the redundant
    full-mode volume is a regression.  The [serve] section (the
    compile-daemon load test) gates only its lower-is-better keys —
    latency quantiles ([*_ms]) and the hot-cache miss rate
    ([*_miss_rate]) — with the runtime tolerance; throughput and hit
    rates are reported but never compared (growth there is good).
    Absence of the [runtime_wall_ms], [runtime_report],
    [level_movement], [transfer_volume] or [serve] sections from an
    older artifact is fine — the new points show up as added, not
    missing.
    A key present in the old artifact but missing from the new one is a
    lost measurement and fails the comparison.

    The [compile_profile] section (per-pass self times from the
    {!Emsc_obs.Prof} layer) is never gated on its own — micro timings
    are too noisy to fail a run — but when a wall-clock metric
    regresses past its tolerance, the old and new per-pass profiles
    are diffed and the top offending passes are named in the failure
    message ({!report}[.r_attribution]).  Passes absent from the old
    profile surface as added coverage; passes the new profile dropped
    are ignored.

    The deterministic solver work in the same section is gated at zero
    tolerance (metric ["solver_work"]): [simplex.minimize] calls and
    the summed [simplex.pivots] and [pip.nodes] counters.  One extra
    pivot fails the comparison, so a solver speed-up cannot be traded
    for more work.  A count absent from the old artifact is added. *)

type change = {
  c_key : string;     (** figure, kernel, or (attribution) pass name *)
  c_metric : string;
      (** ["wall_ms"], ["global_words"], ["runtime_wall_ms"],
          ["overlap_fail"], ["solver_work"] or ["pass_self_ms"]
          (attribution only) *)
  c_old : float;
  c_new : float;
  c_ratio : float;    (** new / old; [infinity] when old is 0 *)
}

type report = {
  r_regressions : change list;
  r_improvements : change list;
  r_unchanged : int;
  r_missing : string list;  (** measurements the new artifact dropped *)
  r_added : string list;
  r_attribution : change list;
      (** non-empty only when a wall metric regressed: the passes whose
          self time grew beyond the wall tolerance (and by at least
          0.1 ms), largest absolute growth first, capped at 3 *)
}

val default_wall_tolerance : float
(** 0.5: half again slower fails. *)

val default_move_tolerance : float
(** 0.01: simulated movement is deterministic; any real growth fails. *)

val default_runtime_tolerance : float
(** 1.0: a parallel-backend point may double before it fails — the
    gate catches order-of slowdowns, not wall jitter. *)

val compare :
  ?wall_tolerance:float ->
  ?move_tolerance:float ->
  ?runtime_tolerance:float ->
  Emsc_obs.Json.t ->
  Emsc_obs.Json.t ->
  (report, string) result
(** [compare old_artifact new_artifact].  [Error] on artifacts that do
    not carry the [emsc-bench/1] schema sections. *)

val ok : report -> bool
(** No regressions and no lost measurements. *)

val json : report -> Emsc_obs.Json.t
val pp : Format.formatter -> report -> unit
