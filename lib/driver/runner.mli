(** Execution back end of the pipeline: the memory-setup /
    local-buffer / executor glue every consumer used to hand-roll.

    {!simulate} runs a compiled (tiled) kernel on the simulated
    machine; {!reference} runs the original program on the exact
    reference interpreter; {!execute} is the generic form for kernels
    produced outside the plan pipeline (e.g. the overlapped stencil
    tiler). *)

open Emsc_arith
open Emsc_ir
open Emsc_machine

(** How to populate global arrays before running. *)
type memory_kind =
  | Phantom
      (** shape-only memory for sampled timing runs (huge sizes) *)
  | Zeroed
  | Filled of (string * (int array -> float)) list
  | Pseudorandom
      (** deterministic hash fill — the CLI's reproducible inputs *)

val no_params : string -> Zint.t
(** Raises [Failure]; the param env for parameter-free programs. *)

val zero_env : string -> Zint.t

val env_of_params : (string * int) list -> string -> Zint.t
(** Raises [Failure "parameter <p> needs a value"] on unbound names. *)

val prepare :
  ?memory:memory_kind -> param_env:(string -> Zint.t) -> Prog.t -> Memory.t
(** Memory with globals allocated and populated ([Zeroed] default). *)

type backend = [ `Seq | `Par of int ]
(** [`Seq] replays on the sequential interpreter; [`Par jobs] executes
    block-parallel on [jobs] domains through {!Emsc_runtime.Runtime}.
    Parallel execution is always [Full] fidelity and produces
    bit-identical arrays, totals and launch grids to [`Seq] in [Full]
    mode, for any [jobs]. *)

val execute :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Emsc_codegen.Ast.ref_expr option) ->
  ?locals:string list ->
  ?mode:Exec.mode ->
  ?memory:memory_kind ->
  ?param_env:(string -> Zint.t) ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ?backend:backend ->
  ?double_buffer:bool ->
  ?track_ownership:bool ->
  ?block_words:int ->
  ?inter_tile_reuse:bool ->
  ?hierarchy:Hierarchy.t ->
  Emsc_codegen.Ast.stm list ->
  Memory.t * Exec.result
(** Run an AST: prepare memory, declare [locals], execute under a
    ["driver.execute"] probe.  Defaults: [Zeroed] memory,
    [Sampled 6] mode, parameter-free env, [`Seq] backend.  With
    [`Par], [mode] is ignored ([Full] by construction), [block_words]
    sizes each block's scratchpad arena, [double_buffer] turns on the
    async DMA pipeline, and the concurrent-arena cap follows
    [Timing.occupancy] over the effective (buffering-adjusted)
    footprint at the staging level of [hierarchy] (default
    {!Hierarchy.gtx8800}).  [inter_tile_reuse] makes the parallel
    executor's chains runs of consecutive blocks sharing one arena, so
    the plan's resident slabs survive between blocks — required when
    the AST carries delta-movement guards. *)

val simulate :
  ?mode:Exec.mode ->
  ?memory:memory_kind ->
  ?param_env:(string -> Zint.t) ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ?backend:backend ->
  ?double_buffer:bool ->
  ?track_ownership:bool ->
  ?hierarchy:Hierarchy.t ->
  Pipeline.compiled ->
  Memory.t * Exec.result
(** Run a compiled kernel: the tiled AST against the tiled program,
    with the plan's buffers declared and accesses redirected when the
    compilation staged data (its options had [stage_data], the
    default).  Defaults: [Phantom] memory, [Sampled 6], [`Seq].  With
    [`Par], the mode is forced to [Full] and the per-block arena size
    is derived from the plan's total footprint.
    @raise Invalid_argument if the compilation has no generated kernel
    (untiled, or stopped early). *)

val with_runtime_report :
  ?capacity:int ->
  (unit -> 'a) ->
  'a * Emsc_obs.Runtime_report.t option
(** Record {!Emsc_obs.Events} around [f] — reset, enable (optionally
    with a ring [capacity]), run, drain, analyze.  [None] when [f]
    produced no runtime events (e.g. a sequential run).  Event
    recording is restored to its previous state afterwards; the drained
    rings are kept, so {!Emsc_obs.Events.write_merged_chrome} called
    later still exports this run's tracks. *)

val reference :
  ?memory:memory_kind ->
  ?param_env:(string -> Zint.t) ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  Prog.t ->
  Memory.t * Exec.counters
(** Exact reference interpretation under a ["driver.reference"]
    span.  Default memory: [Zeroed]. *)
