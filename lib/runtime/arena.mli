(** Per-block scratchpad arenas carved from a shared pool.

    An arena is a {!Emsc_machine.Memory.fork_view} of the launch
    memory: globals are shared physically, local buffers are private to
    the block executing in the arena.  The pool enforces the machine's
    concurrent-blocks rule from [Timing.occupancy] (at most
    [max_arenas] held at once), tracks the words the held arenas
    reserve for the occupancy samples, and recycles released views so
    steady-state acquisition allocates nothing.

    Thread-safe: acquire/release may be called from any domain. *)

open Emsc_machine

type pool
type t

val create_pool :
  ?max_arenas:int ->
  ?fork:(Memory.t -> Memory.t) ->
  base:Memory.t ->
  unit ->
  pool
(** [max_arenas]: concurrent-arena cap, the occupancy rule (unbounded
    when omitted).  [base] supplies the shared globals and the set of
    declared local buffer names.  [fork] (default
    {!Memory.fork_view}) creates each fresh view; tests inject a
    raising fork to exercise the pool's failure path. *)

val set_event_ring : pool -> Emsc_obs.Events.ring -> unit
(** Record an {!Emsc_obs.Events.Occupancy} sample (words and arenas in
    use) on [r] at every reserve and release.  Samples are emitted
    inside the pool's critical section, so the ring's single-writer
    contract holds even though acquire/release run on many domains.
    No-op cost when events are disabled. *)

val acquire : pool -> words:int -> t
(** Reserve an arena of [words] scratchpad words and hand out a view,
    blocking while [max_arenas] are held.  Exception-safe: if forking
    the view raises, the pool is left exactly as found — counters
    untouched, mutex released — and the exception propagates. *)

val try_acquire : pool -> words:int -> t option
(** Non-blocking variant for opportunistic use (DMA prefetch): [None]
    when the pool is full right now.  Exception-safe like
    {!acquire}. *)

val memory : t -> Memory.t

val release : t -> unit
(** Return the arena to the pool.  Records the view's peak local
    occupancy, clears its local buffers, and recycles the view.
    Idempotent: releasing twice is a no-op. *)

val in_use : pool -> int
(** Arenas currently held. *)

val peak_in_use : pool -> int
(** High-water mark of concurrently held arenas. *)

val peak_occupancy : pool -> (string * int) list
(** Per local buffer, the largest footprint in words any single arena
    reached before release — the per-block scratchpad peak, sorted by
    name. *)
