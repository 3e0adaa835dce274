(** The [emsc serve] daemon: compile-as-a-service over the
    {!Protocol} wire format.

    {v
            clients (unix socket / loopback TCP, one JSON line per request)
               │
        ┌──────▼──────────────────────────────────────────────┐
        │ event loop (select): accept, split lines, validate, │
        │ answer status/shutdown, apply backpressure          │
        └──────┬──────────────────────────────────────────────┘
               │ bounded task queue (queue_full reject past capacity)
        ┌──────▼──────────────┐
        │ worker domain pool  │── Pipeline.compile under Prof
        └──────┬──────────────┘
               │ shared Driver.Cache (LRU memory layer + atomic disk)
               ▼
         responses, delivered by the event loop in arrival order
    v}

    One thread (the caller of {!run}) owns all socket I/O; worker
    domains only compute.  Admitted requests carry their arrival time:
    a worker that pops a request past its deadline answers a
    ["timeout"] reject without compiling (timeouts bound queueing, not
    an in-flight compile — a compile cannot be safely preempted).
    [shutdown] (or SIGTERM when [install_signal_handlers]) starts a
    graceful drain: the listen socket closes, queued and in-flight
    work finishes, every response flushes, the pool joins, and {!run}
    returns. *)

type addr = [ `Unix of string | `Tcp of string * int ]

type config = {
  addr : addr;
  workers : int;             (** worker domains executing requests *)
  queue_capacity : int;      (** admitted-but-unstarted request bound *)
  default_timeout_ms : float;(** [<= 0]: no deadline unless the request sets one *)
  max_line_bytes : int;      (** request lines past this are rejected *)
  cache : Emsc_driver.Cache.t;  (** shared across workers; make it LRU-capped *)
  default_machine : string;  (** when a request names no machine *)
  install_signal_handlers : bool;
      (** SIGTERM/SIGINT → graceful drain.  Leave [false] when
          embedding the server in a test or bench process. *)
  log : string -> unit;
}

val config :
  ?workers:int ->
  ?queue_capacity:int ->
  ?default_timeout_ms:float ->
  ?max_line_bytes:int ->
  ?cache:Emsc_driver.Cache.t ->
  ?default_machine:string ->
  ?install_signal_handlers:bool ->
  ?log:(string -> unit) ->
  addr -> config
(** Defaults: workers from [Domain.recommended_domain_count] (capped
    at 4), queue capacity 64, no timeout, 1 MiB lines, no cache,
    machine ["gtx8800"], no signal handlers, silent. *)

type stats = {
  served : int;       (** requests answered [ok:true] *)
  rejected : int;     (** requests answered with a typed error *)
  connections : int;  (** connections accepted over the lifetime *)
}

val run : config -> stats
(** Serve until a [shutdown] request (or SIGTERM under
    [install_signal_handlers]) completes its drain.  Blocks the
    calling thread; embed in a [Domain.spawn] to serve in-process. *)

val job_of_request :
  default_machine:string -> name:string -> text:string ->
  Protocol.options_req ->
  (Emsc_driver.Pipeline.job * int, Protocol.reject) result
(** The pipeline job (and machine staging capacity in words) a request
    denotes.  The daemon and the bit-identity tests both build jobs
    here, so a server response can be compared against a direct
    [Pipeline.compile] of the very same job. *)

val execute :
  cache:Emsc_driver.Cache.t -> default_machine:string -> Protocol.op ->
  (Emsc_obs.Json.t * (string * Emsc_obs.Json.t) list, Protocol.reject) result
(** Run one admitted operation: the deterministic result payload plus
    the non-deterministic per-request server fields (cache traffic).
    [Status]/[Shutdown] are answered by the event loop and reject
    here. *)
