(** The parallel runtime's timeline, read from the {!Prof} span tree.

    The runtime ({!Emsc_runtime}) records its timeline as ordinary
    probes.  Each lane job is rooted at a [runtime.worker] span, whose
    [worker] arg names the track [worker<i>], or at a [runtime.dma]
    span, whose [channel] arg names the track [dma<i>].  Inside them:
    - [block] (a whole block) and [compute] (the compute phase of a
      double-buffered block) on worker tracks;
    - [dma-wait] (a worker awaiting its block's move-in) and
      [arena-wait] (a worker awaiting arena capacity);
    - [dma-in] and [dma-out] on DMA tracks, with the staged words as
      the span's counter [words];
    - [occupancy], a zero-length sample with [words] and [arenas] args
      at every arena reserve and release, shown on one [arena] track.
    Block, compute, DMA and DMA-wait spans carry [launch] and [block]
    args.

    {!build} turns those spans into the quantities the paper's overlap
    story is about: where each worker domain spent its time (busy /
    waiting-on-DMA / idle), how much of the DMA lanes' busy time was
    hidden under compute (the achieved overlap fraction the
    double-buffer {!Timing} model predicts an upper bound for),
    scratchpad occupancy over time, and the critical-path length of
    the launch sequence. *)

type domain_stat = {
  d_name : string;
  d_busy_s : float;      (** executing block phases *)
  d_dma_wait_s : float;  (** blocked awaiting a DMA ticket *)
  d_idle_s : float;      (** window minus busy minus wait, clamped at 0 *)
  d_blocks : int;        (** block phases executed *)
}

type occupancy_sample = { o_t : float; o_words : int; o_arenas : int }

type t = {
  window_s : float;        (** earliest timeline span start to latest end *)
  domains : domain_stat list;  (** one per worker track, by index *)
  compute_busy_s : float;  (** union of block-phase intervals, all domains *)
  dma_busy_s : float;      (** union of DMA-transfer intervals, all lanes *)
  dma_words : float;
  overlap_s : float;       (** |compute ∩ dma| *)
  overlap_fraction : float;
      (** [overlap_s /. dma_busy_s]; 0 when no DMA ran *)
  occupancy : occupancy_sample list;  (** time order *)
  occupancy_peak_words : int;
  occupancy_peak_arenas : int;
  critical_path_s : float;
      (** launches are barrier-separated, so: sum over launches of the
          longest single block envelope in that launch *)
}

val build : Prof.node list -> t option
(** Analyze the lane spans among the given top-level spans (what
    {!Prof.collect} returns, or {!Prof.roots}).  [None] when they hold
    no timeline span (no parallel run was recorded). *)

val chrome_json : unit -> Json.t
(** The retained span tree ({!Prof.roots}) as one Chrome [trace_event]
    document: compile spans on pid 1, and under pid 2 ("emsc runtime")
    one named thread per lane track ([worker<i>], [dma<i>]) plus the
    [arena] occupancy track.  With no lane spans it holds only pid 1. *)

val write_chrome : string -> unit
(** Write {!chrome_json} to a file; raises [Sys_error] when the write
    fails. *)

val to_json : t -> Json.t
(** Times in milliseconds, fractions unitless. *)

val pp : Format.formatter -> t -> unit
