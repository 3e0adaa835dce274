(** Declarative N-level explicit memory hierarchies.

    The paper's machine model, generalized: an ordered stack of memory
    levels — innermost (closest to the compute units) first, the
    unbounded home level (DRAM) last — each with a capacity, word size,
    access cost, parallel fan-out, and a transfer edge to its parent.
    The 8800 GTX of the paper is the 2-level special case
    (scratchpad ⊂ DRAM).  The launch model ({!Timing}) reads the
    staging level, its parent edge and the compute block.  Arches are
    data: built-ins by name, or JSON files under
    [examples/machines/]. *)

type edge = {
  e_bw_words_per_cycle : float;
      (** aggregate transfer bandwidth over all units of the level *)
  e_latency : float;  (** cycles per uncovered transfer *)
  e_coalesce_width : int;  (** consecutive words per transaction *)
}

type level = {
  l_name : string;
  l_capacity_bytes : int option;  (** [None] = unbounded (the home) *)
  l_word_bytes : int;
  l_access_cycles : float;  (** per word per thread, conflict-free *)
  l_fanout : int;  (** instances of this level on the chip *)
  l_line_bytes : int option;
      (** cache-line geometry when the level is also simulated as a
          hardware cache ([Cache.Sim]) *)
  l_assoc : int option;
  l_to_parent : edge option;  (** [None] only on the home level *)
}

type compute = {
  c_clock_mhz : float;
  c_flop_cycles : float;
  c_simd_per_unit : int;
  c_warp_size : int;
  c_max_blocks_per_unit : int;
  c_sync_cycles : float;
  c_global_sync_base : float;
  c_global_sync_per_block : float;
  c_launch_overhead_cycles : float;
}

type t = {
  h_name : string;
  h_compute : compute;
  h_levels : level list;  (** innermost first, home (DRAM) last *)
}

(** {2 Accessors} *)

val name : t -> string
val levels : t -> level list
val compute : t -> compute
val num_levels : t -> int

val home : t -> level
(** The outermost, unbounded level. *)

val explicit_levels : t -> level list
(** All levels but the home — the explicitly managed scratchpads. *)

val staging : t -> level
(** The explicit level adjacent to the home: where plans stage their
    buffers (smem on the GPU). *)

val level_capacity_words : level -> int option
val staging_capacity_words : t -> int

val effective_words : double_buffer:bool -> int -> int
(** The one generalized per-level capacity rule: double buffering keeps
    two windows of every staged buffer resident, so the effective need
    is twice the placed footprint.  Every capacity comparison (Plan,
    Invariants, Runtime arena, bench) routes through this. *)

val edges : t -> (level * level * edge) list
(** [(inner, outer, edge)] per adjacent pair, innermost edge first. *)

val edge_name : level * level * edge -> string
(** ["inner<-outer"], the direction data is staged. *)

(** {2 Validation} *)

val validate : t -> (t, string) result
(** ≥2 distinct-named levels, positive geometry, inner levels bounded
    with a parent edge, home unbounded without one. *)

val ms_of_cycles : t -> float -> float
(** Cycles of the compute clock, in milliseconds. *)

(** {2 Built-ins} *)

val gtx8800 : t
(** The paper's GeForce 8800 GTX: 16 multiprocessors with 16 KB of
    scratchpad each over DRAM. *)

val gtx8800_3level : t
(** The same chip with the per-multiprocessor register file as an
    explicit innermost level (registers ⊂ smem ⊂ DRAM); the staging
    level and its DRAM edge are identical to [gtx8800]. *)

val core2duo_cache_as_scratchpad : t
(** The Core2 Duo host with its caches treated as explicitly managed
    scratchpads; line/assoc geometry drives [Cache.Sim]. *)

val builtins : (string * t) list

(** {2 JSON} *)

val to_json : t -> Emsc_obs.Json.t

val digest : t -> string
(** Stable content digest of {!to_json}.  Fold this into any cache key
    whose value depends on the machine (plan-stage fingerprints): two
    machines that differ only in capacities digest differently. *)

val of_json : Emsc_obs.Json.t -> (t, string) result
val of_file : string -> (t, string) result

val load : string -> (t, string) result
(** Resolve a [--machine] spec: a built-in name, else a JSON file path;
    the error lists the built-ins. *)
