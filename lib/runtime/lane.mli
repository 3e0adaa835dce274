(** Lanes: FIFO job queues, each served by one domain that lingers
    briefly when idle, then retires.

    The runtime's compute units and their DMA engines are both lanes —
    the software analogue of the paper's machine model, where each
    processor is paired with a scratchpad DMA engine.  A worker lane
    runs one launch's blocks; a DMA lane stages block [j+1]'s move-in
    while its worker computes block [j], then retires block [j]'s
    move-out the same way.

    Lanes outlive runs, and their domains outlive jobs: once its queue
    is empty a lane's domain waits {!linger_s} for more work, then
    exits.  The next {!submit} spawns a fresh domain.  So back-to-back
    runs reuse one set of domains, while an idle process keeps none
    alive (in OCaml 5.1 every live domain, even a blocked one, takes
    part in every minor collection).  At exit, lingering lanes are
    woken and reaped without waiting out the linger.

    Jobs must never block on pool resources (the runtime acquires
    arenas before submitting), so a lane always drains.  Exceptions
    raised by a job are stored in its ticket and re-raised by
    {!await}. *)

type t
type ticket

val create : unit -> t
(** A lane with no domain yet; the first {!submit} spawns one. *)

val linger_s : float
(** How long an idle domain waits for work before it retires. *)

val live : unit -> int
(** Lanes of this process whose domain is currently alive. *)

val submit : t -> (unit -> unit) -> ticket
(** Queue a job, spawning the lane's domain if it has retired (counted
    by the Prof counter [runtime.domain_spawns]).  The job runs on the
    lane's domain, so the probes it opens are roots of that domain's
    Prof stack; the runtime roots each job at a [runtime.worker] or
    [runtime.dma] span, the tracks of its timeline. *)

val await : ticket -> unit
(** Block until the job has run; re-raise its exception, if any. *)

val await_all : ticket list -> unit
(** Block until every job has run, then re-raise the first exception
    in list order, if any. *)
