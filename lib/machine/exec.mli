(** Executor of the generated loop-nest AST, with event accounting.

    Two fidelities:
    - [Full]: every iteration executes; array contents are exact (used
      by correctness tests comparing against the reference executor).
    - [Sampled n]: loops with at least [n] iterations execute only
      their first and last iteration and the middle is accounted as
      [(trip-2) * (first+last)/2] — exact for iteration costs that are
      constant or vary linearly in the loop variable (rectangles,
      triangles, trapezoids), which covers the loop nests the tiler
      emits.  Array contents are then meaningless; only counters and
      launch shapes are valid.

    A "launch" is a maximal outermost band of [Block]-parallel loops:
    its grid size and average per-block counters feed the GPU timing
    model. *)

open Emsc_arith
open Emsc_ir

type counters = {
  mutable flops : float;
  mutable g_ld : float;   (** global words loaded *)
  mutable g_st : float;
  mutable s_ld : float;   (** scratchpad words loaded *)
  mutable s_st : float;
  mutable syncs : float;  (** intra-block barriers *)
  mutable fences : float;
      (** barriers bracketing global-memory movement phases *)
}

val fresh : unit -> counters
val total_global : counters -> float
val total_smem : counters -> float

val add_into : counters -> counters -> unit
(** [add_into src dst] accumulates [src] into [dst].  Every counter is
    an integer-valued event count stored in a float, so the sum is
    exact and independent of accumulation order — the property the
    parallel backend relies on for bit-identical totals. *)

val scale_counters : counters -> float -> counters

val counters_json : counters -> Emsc_obs.Json.t

type launch = {
  grid : float;           (** number of thread blocks *)
  per_block : counters;   (** average per-block work *)
  repeat : float;
      (** dynamic occurrence count: in [Sampled] mode a launch inside a
          sampled loop stands for the loop's middle iterations too *)
}

type result = {
  totals : counters;
  launches : launch list;  (** in execution order *)
}

type mode = Full | Sampled of int

val run :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Emsc_codegen.Ast.ref_expr option) ->
  param_env:(string -> Zint.t) ->
  memory:Memory.t ->
  ?mode:mode ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  Emsc_codegen.Ast.stm list ->
  result
(** Lower [stms] (see {!lower}) and run them once.  [local_ref]
    redirects accesses into scratchpad buffers (from
    {!Emsc_core.Plan.local_ref}); buffers it names must be declared in
    [memory] by the caller via {!Memory.declare_local}.  [on_global] is
    called with the flat word address for each global access (cache
    simulation hook); it is only invoked in [Full] mode.  Every free
    variable of [stms] is read from [param_env] before the first
    statement runs. *)

val expr_flops : Prog.expr -> int

(** {2 Lowering}

    Statements are lowered once into OCaml closures over a per-block
    frame, then run any number of times.  Each loop variable and bound
    name lives in an [int] slot of the frame; every affine bound,
    guard and subscript is a precomputed dot product over slots (an
    access map composed with the instance's affine iteration
    arguments), with checked arithmetic: a value outside the native
    [int] range raises [Failure] instead of wrapping.  Each float
    expression node writes its value into a cell of the frame's float
    array, and an access of rank 2 hands its indices to {!Memory}
    directly, so running the code allocates nothing per access.
    Buffer names are resolved to their storage once per block.  Loads
    a statement makes are issued right operand first, as they always
    were, so the [on_global] address order is unchanged.

    A [session] packages what lowering shares across codes: the
    statement table and each access's local-buffer redirection, asked
    once per session.  Lowered code is immutable, so one [code] may
    run on many domains at once; all mutable state lives in the frame
    {!run_block} builds. *)

type session

val session :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Emsc_codegen.Ast.ref_expr option) ->
  param_env:(string -> Zint.t) ->
  unit ->
  session

type code

val lower : session -> Emsc_codegen.Ast.stm list -> code
(** Adds the number of statement nodes lowered to the
    [exec.lowered_stms] {!Emsc_obs.Prof} counter.  Main domain only. *)

type block_dma = {
  copies : float;          (** staged copies executed *)
  moved_in : (string * float) list;
      (** words moved global->local, per buffer, sorted by name *)
  moved_out : (string * float) list;
}

type block_outcome = {
  b_counters : counters;
  b_dma : block_dma;
}

val run_block :
  memory:Memory.t ->
  ?mode:mode ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ?collect_dma:bool ->
  bindings:(string * Zint.t) list ->
  code ->
  block_outcome
(** Run [code] in a fresh frame with a fresh counter set: its free
    names take their values from [bindings] (a later binding of a
    name wins) or else the session's parameter valuation.  Never
    touches [Prof] (safe on a worker domain); movement is
    tallied into the outcome when [collect_dma] is set.  Block loops
    inside the code are treated as plain loops — launch bookkeeping
    belongs to the caller. *)

(** {2 Run bookkeeping shared with the parallel runtime} *)

type dma_tally
(** A mutable per-buffer movement tally: the sum of many
    {!block_dma}s. *)

val fresh_tally : unit -> dma_tally

val tally_add : dma_tally -> block_dma -> unit

val prof_launch : counters -> unit
(** Add one launch's counters to the [launch.flops], [launch.global],
    [launch.smem] and [launch.syncs] {!Emsc_obs.Prof} counters. *)

val record_run_metrics :
  counters -> dma_tally -> occupancy:(unit -> (string * int) list) -> unit
(** Record one finished run as {!Emsc_obs.Prof} values: the movement
    tally ([exec.copies], [exec.move_in_words]/[exec.move_out_words]
    per buffer), the [exec.*] counter totals, and [occupancy] as the
    per-buffer [exec.scratchpad_occupancy_words] gauge-max values.
    [occupancy] is only called when the registry is on.  Main domain
    only. *)
