(** Content-addressed memoization of pipeline stage results.

    Keys are digests of (compiler build id, source content, stage
    name, option fingerprint); values are marshalled OCaml values.  Two layers: an in-process table (hits within one run,
    across the workers of a batch via fork inheritance of warm state,
    and across the requests of a long-running [emsc serve] daemon) and
    an optional on-disk store (hits across processes — this is what
    makes a repeated [emsc analyze] skip the hyperplane search, the
    tile-size search and [Plan.plan_block]).

    The memory layer is an exact LRU bounded by [max_entries] (when
    given), so a persistent process cannot grow without limit; an
    evicted entry that was also stored on disk falls through to the
    disk layer on its next lookup and is promoted back.

    Domain-safe: every counter update and memory-layer mutation runs
    under one internal mutex, so a single [t] may be shared by
    concurrent worker domains.  The cached computation itself runs
    outside the lock — two domains racing on one key may both compute
    it (both count a miss, both store; last store wins), which is
    benign because values are content-addressed.

    Lookups never fail the compilation: a corrupt or unreadable entry
    is a miss, an unwritable directory silently degrades to the
    in-memory layer. *)

type t

val off : t
(** Never hits, never stores, counts nothing. *)

val in_memory : ?max_entries:int -> unit -> t
(** Memory-only cache; [max_entries] caps the LRU (unbounded when
    omitted). *)

val create : ?dir:string -> ?max_entries:int -> unit -> t
(** Disk-backed cache at [dir] (created if missing; falls back to
    memory-only if creation fails).  [dir] defaults to
    {!default_dir}; [max_entries] caps the memory layer only — the
    disk layer is never evicted. *)

val enabled : t -> bool
val dir : t -> string option
val max_entries : t -> int option

val key : digest:string -> stage:string -> extra:string -> string
(** The content-addressed key: digest of {!Build_id.id} + source
    digest + stage name + option fingerprint. *)

val memo : t -> key:string -> (unit -> 'a) -> 'a * bool
(** Cached value (and [true]), or [f ()] stored under [key] (and
    [false]).  Counters are updated accordingly.

    The stored representation is untyped (Marshal); soundness comes
    from the key: a given (build, stage) pair always stores the same
    type and the same behaviour's result, and an entry written by
    another build of the compiler is a miss. *)

val find : t -> key:string -> 'a option

val store :
  ?writer:(out_channel -> string -> unit) -> t -> key:string -> 'a -> unit
(** [writer] (default [output_string]) performs the on-disk write of
    the marshalled bytes; tests inject a failing writer to exercise the
    error path.  If it raises, the temporary file is closed and
    unlinked — never orphaned — and I/O errors degrade silently to the
    in-memory layer as usual. *)

val hits : t -> int
(** [hot_hits + disk_hits]. *)

val hot_hits : t -> int
(** Lookups answered by the memory layer. *)

val disk_hits : t -> int
(** Lookups that missed memory, hit disk, and were promoted. *)

val misses : t -> int
val stores : t -> int

val evictions : t -> int
(** Memory-layer entries dropped by the LRU cap (also counted on the
    ["driver.cache.evictions"] metric). *)

val mem_entries : t -> int
(** Current memory-layer size; always [<= max_entries] when capped. *)

val stats_json : t -> Emsc_obs.Json.t
