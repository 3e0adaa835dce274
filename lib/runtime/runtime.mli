(** Multicore parallel execution backend.

    Executes a compiled kernel AST with true parallelism on OCaml 5
    domains, realizing the machine model the compiler targets: each
    launch's outermost band of [Block]-parallel loops is decomposed
    into block tasks run by [jobs] workers under one static schedule.
    The blocks are grouped into chains — a chain is a single block
    unless the plan carries inter-tile delta guards — and chain [c]
    runs on worker [c mod jobs] in one scratchpad {!Arena} (shared
    globals, private locals), at most [max_concurrent_blocks] arenas
    held at once.  When [double_buffer] is set and the block body has
    the canonical move-in / compute / move-out shape, worker [w] runs
    blocks [w], [w + jobs], ... with the move phases on its own DMA
    lane, overlapping block [j]'s compute with block [j+1]'s move-in.
    Launches are separated by global barriers: all block tasks join,
    counters are reduced in block order (bit-identical to sequential
    execution for any [jobs] value), and movement metrics are fenced
    out.

    A run spawns no domains of its own.  It checks out a crew —
    [jobs] worker lanes and [jobs] DMA lanes ({!Lane}) — from a
    process-wide free list keyed by [jobs], holds it exclusively, and
    returns it when it ends, also when it raises.  A lane's domain
    lingers {!Lane.linger_s} after its last job, so back-to-back runs
    reuse one set of domains and an idle process keeps none.
    Concurrent runs with the same [jobs] each get a crew of their
    own.

    Determinism rests on the plan's launch race-freedom: blocks of one
    launch write disjoint global cells and never read another block's
    writes.  [track_ownership] checks exactly that at runtime.

    [Full] fidelity only — sampled execution is inherently sequential
    (iteration deltas), and parallel runs exist to produce exact
    arrays and wall time. *)

open Emsc_arith
open Emsc_ir
open Emsc_codegen
open Emsc_machine

type cfg = {
  jobs : int;                    (** worker lanes *)
  double_buffer : bool;          (** pipeline move phases on DMA lanes *)
  track_ownership : bool;
      (** debug: detect cross-block global write conflicts and
          reads-of-foreign-writes within a launch *)
  max_concurrent_blocks : int option;
      (** concurrent-arena cap; [Timing.occupancy]'s rule *)
  block_words : int;
      (** estimated per-block scratchpad words, reported in the arena
          occupancy samples (0 = unknown) *)
  inter_tile_reuse : bool;
      (** the plan carries inter-tile delta movement (guarded
          full/delta nests from [Plan.plan_block ~inter_tile]): chains
          are runs of consecutive blocks differing only in the
          innermost block origin, so resident slabs survive between
          the blocks of one arena, and [double_buffer] is ignored,
          since releasing arenas mid-chain would wipe residency.
          Counter totals stay bit-identical to sequential execution. *)
}

val default_cfg : jobs:int -> cfg
(** No double buffering, no tracking, unbounded pool, no inter-tile
    reuse. *)

exception Ownership_violation of string

val pipeline_phases :
  Ast.stm list -> (Ast.stm list * Ast.stm list * Ast.stm list) option
(** Split a block body into (move-in, compute, move-out) at its
    top-level fences when the prefix/suffix are pure movement — the
    shape the tiler emits for hoisted transfers.  [None] when the body
    does not pipeline (movement nested inside compute loops). *)

val run :
  prog:Prog.t ->
  ?local_ref:(Prog.stmt -> Prog.access -> Ast.ref_expr option) ->
  param_env:(string -> Zint.t) ->
  memory:Memory.t ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  ?cfg:cfg ->
  Ast.stm list ->
  Exec.result
(** Drop-in parallel analogue of {!Exec.run} in [Full] mode: same
    totals bit-for-bit, same launch records (grids from exact block
    enumeration), same global-array contents.  Host-level statements
    (outside any block loop) execute on the calling domain.
    [on_global], when given, is serialized under a mutex.
    @raise Ownership_violation when [track_ownership] finds a race. *)
