(** Post-run analysis of drained {!Events} tracks.

    Turns the raw per-domain timelines into the quantities the paper's
    overlap story is about: where each worker domain spent its time
    (busy / waiting-on-DMA / idle), how much of the DMA channels' busy
    time was hidden under compute (the achieved overlap fraction the
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
  window_s : float;        (** earliest event start to latest end *)
  domains : domain_stat list;
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
  dropped_events : int;  (** total ring-wraparound drops, all tracks *)
}

val build : Events.track list -> t option
(** [None] when the tracks carry no events (recording was off). *)

val to_json : t -> Json.t
(** Times in milliseconds, fractions unitless. *)

val pp : Format.formatter -> t -> unit
