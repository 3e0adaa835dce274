(** First-order timing models.

    GPU launch time combines a throughput term (SIMD lanes shared by
    the block's threads), a bandwidth term (device DRAM bandwidth
    partitioned across multiprocessors, derated by coalescing
    efficiency), a latency term (hidden by warps in flight), and
    synchronization costs.  Occupancy follows the paper's Section 5
    rule: concurrent blocks per multiprocessor = scratchpad capacity
    divided by per-block scratchpad need, capped by hardware. *)

type gpu_params = {
  threads : int;              (** threads per block *)
  smem_bytes_per_block : int; (** drives occupancy *)
  coalesce_eff : float;
      (** effective words per global transaction, in
          [1, coalesce_width]; 16 = fully coalesced on the 8800 *)
  global_sync : bool;
      (** charge a cross-block synchronization per launch (kernels
          that need all blocks to finish, e.g. time-tiled stencils) *)
  double_buffer : bool;
      (** overlap movement with compute (double-buffered staging):
          removes the per-phase DRAM drain; the caller must double
          [smem_bytes_per_block] *)
}

val default_params : gpu_params

val plan_smem_bytes :
  double_buffer:bool -> word_bytes:int ->
  Emsc_core.Plan.t -> (string -> Emsc_arith.Zint.t) -> int option
(** Effective per-block scratchpad bytes of a plan under [env] (the
    tile-size valuation), or [None] when a buffer footprint does not
    evaluate to a machine integer. *)

val occupancy : Hierarchy.t -> smem_bytes_per_block:int -> int
(** Concurrent blocks per multiprocessor: the staging level's capacity
    over the per-block need, capped by [c_max_blocks_per_unit].
    Raises [Invalid_argument] when the staging level has no capacity
    or no parent edge ({!Hierarchy.validate} rules both out). *)

type breakdown = {
  occ : int;                 (** concurrent blocks per multiprocessor *)
  blocks_per_mp : float;     (** block waves each MP executes *)
  warps_in_flight : float;
  pipeline_eff : float;
  t_comp : float;            (** compute/smem throughput cycles per block *)
  t_bw : float;              (** DRAM bandwidth cycles per block *)
  t_lat : float;             (** exposed global-latency cycles per block *)
  t_sync : float;            (** intra-block barrier cycles *)
  t_fence : float;           (** movement-phase DRAM drain cycles *)
  t_block : float;           (** max(comp,bw,lat) + sync + fence *)
  global_sync_cycles : float;
  launch_cycles : float;     (** total, incl. overheads and repeats *)
}
(** Where a launch's time goes — the decomposition that determines
    which resource (compute, bandwidth, latency, synchronization)
    bounds the kernel. *)

val launch_breakdown : Hierarchy.t -> gpu_params -> Exec.launch -> breakdown
(** The launch model over the staging level (scratchpad capacity,
    fan-out, access cost), its parent edge (DRAM bandwidth, latency,
    coalescing width) and the compute block. *)

val launch_cycles : Hierarchy.t -> gpu_params -> Exec.launch -> float
(** [= (launch_breakdown h p l).launch_cycles] *)

val total_ms : Hierarchy.t -> gpu_params -> Exec.result -> float
(** Sum of the run's launch cycles, in milliseconds of the compute
    clock. *)

val cache_total_ms :
  Hierarchy.t -> flops:float -> hits:float array -> home_accesses:float ->
  float
(** Cache-baseline timing over a cache-shaped hierarchy: [hits.(i)]
    aligns with {!Cache.Sim.hits} (the cache-geometry levels in
    order); each level is charged its [l_access_cycles] per hit, the
    home its own per access. *)

(** {2 Machine-readable profiles} *)

val profile_json : Hierarchy.t -> gpu_params -> Exec.result -> Emsc_obs.Json.t
(** Per-launch counters and timing breakdowns plus run totals; the
    payload of [emsc profile]. *)
