(** AST interpreter with event accounting.

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
(** [local_ref] redirects accesses into scratchpad buffers (from
    {!Emsc_core.Plan.local_ref}); buffers it names must be declared in
    [memory] by the caller via {!Memory.declare_local}.  [on_global] is
    called with the flat word address for each global access (cache
    simulation hook); it is only invoked in [Full] mode. *)

val run_instances :
  prog:Prog.t ->
  param_env:(string -> Zint.t) ->
  memory:Memory.t ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  (Prog.stmt * Zint.t array) list ->
  counters
(** Execute explicit statement instances (reference path): exact
    semantics, no rewriting, [Full] fidelity. *)

val expr_flops : Prog.expr -> int

(** {2 Block-granular execution}

    The parallel runtime ([Emsc_runtime]) executes one thread block at
    a time, each on its own domain with its own memory view.  A
    [session] packages everything shareable across blocks: the
    statement tables and an eagerly-filled access-rewrite memo that is
    never mutated after construction, hence safe to consult from many
    domains concurrently. *)

type session

val session :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Emsc_codegen.Ast.ref_expr option) ->
  param_env:(string -> Zint.t) ->
  unit ->
  session

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
  session ->
  memory:Memory.t ->
  ?mode:mode ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ?collect_dma:bool ->
  bindings:(string * Zint.t) list ->
  Emsc_codegen.Ast.stm list ->
  block_outcome
(** Execute statements under the given loop-variable [bindings] with a
    fresh counter set.  Never touches [Metrics] or [Prof] (safe on a
    worker domain); movement is tallied into the outcome when
    [collect_dma] is set.  Block loops inside [stms] are treated as
    plain loops — launch bookkeeping belongs to the caller. *)

val flush_dma_metrics : block_dma -> unit
(** Flush a movement tally into the [Metrics] registry under the same
    names the sequential interpreter uses ([exec.copies],
    [exec.move_in_words]/[exec.move_out_words] per buffer).  Call from
    the main domain only. *)
