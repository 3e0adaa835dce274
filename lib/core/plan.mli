(** End-to-end data-management planning for a program block: the
    framework of Section 3 assembled — data spaces, partitioning,
    Algorithm 1 (reuse), Algorithm 2 (allocation), access-function
    rewriting, and movement code. *)

open Emsc_arith
open Emsc_ir
open Emsc_codegen

(** Inter-tile reuse evidence for one buffer: consecutive blocks along
    the innermost block origin [r_origin] (stepping by [r_step] from
    [r_lb] to [r_last]) share [r_resident]; chain-interior blocks load
    only [r_delta_in] (after relocating the resident slab by [r_shift]
    local cells per kept dim) and flush only [r_delta_out] — writes a
    later block of the chain rewrites stay in the scratchpad until
    that block (or the chain-closing full flush) moves them out.  All
    sets are symbolic in the tile origins; [Uset.union r_delta_in
    r_resident] equals [r_full_in] exactly on integer points (checked
    by {!Emsc_check.Invariants}). *)
type reuse = {
  r_origin : string;
  r_step : int;
  r_lb : int;
  r_last : int;
  r_full_in : Emsc_poly.Uset.t;
  r_delta_in : Emsc_poly.Uset.t;
  r_resident : Emsc_poly.Uset.t;
  r_full_out : Emsc_poly.Uset.t;
  r_delta_out : Emsc_poly.Uset.t;
  r_shift : int array;
}

type buffered = {
  buffer : Alloc.buffer;
  report : Reuse.report;
  move_in : Ast.stm list;
  move_out : Ast.stm list;
  reuse : reuse option;
      (** when present, [move_in]/[move_out] are guard pairs selecting
          full movement on a chain's first/last block and delta
          movement elsewhere *)
}

type t = {
  prog : Prog.t;
  buffered : buffered list;  (** partitions copied to scratchpad *)
  skipped : (Dataspaces.partition * Reuse.report) list;
      (** partitions left in global memory (GPU mode only) *)
  delta : float;  (** Algorithm 1 threshold the plan was built with *)
  arch : [ `Gpu | `Cell ];
}

val plan_block :
  ?delta:float ->
  ?param_env:Zint.t array ->
  ?param_context:Emsc_poly.Poly.t ->
  ?arch:[ `Gpu | `Cell ] ->
  ?optimize_movement:bool ->
  ?live_out:(string -> bool) ->
  ?merge_per_array:bool ->
  ?inter_tile:string * int * string list ->
  Prog.t -> t
(** [arch = `Gpu] (default) copies only partitions Algorithm 1 marks
    beneficial; [`Cell] copies everything, since Cell-like machines
    cannot touch global memory from compute code.
    [optimize_movement] applies the Section 3.1.4 refinement using
    flow-dependence information.  [live_out] defaults to treating every
    array as live (conservative).
    [inter_tile = (origin, step, mem_origins)] (normally
    {!Emsc_transform.Tile.inter_tile_origin}) enables irredundant
    inter-tile movement keyed on the named block origin: eligible
    buffers get guarded full/delta movement (see {!reuse}); ineligible
    ones silently keep full per-block movement.  Requires
    [param_context] for the origin's range and is mutually exclusive
    with [optimize_movement]. *)

val local_ref : t -> Prog.stmt -> Prog.access -> Ast.ref_expr option
(** How an access is rewritten to the local buffer: index expressions
    over the statement's iterator names and the program parameters.
    [None] when the access stays in global memory. *)

val all_move_in : t -> Ast.stm list
val all_move_out : t -> Ast.stm list

val total_footprint : t -> (string -> Zint.t) -> Zint.t
(** Scratchpad elements needed by all buffers under a parameter
    valuation (the ∑ M_i of Section 4.3). *)

val pp : Format.formatter -> t -> unit

(** {2 Explain report}

    Machine-readable record of why each partition was (or was not)
    staged into scratchpad: the Algorithm 1 verdict with its rank-test
    and overlap-fraction evidence, and the chosen buffer extents.
    Serialized with {!Emsc_obs.Json}; surfaced by
    [emsc analyze --json]. *)

type buffer_summary = {
  b_name : string;
  b_dims : (int * string * string * string) array;
      (** (original array dim, lb, ub, size) as printed expressions
          over the program parameters *)
  b_footprint_words : int option;
      (** under the valuation given to {!explain}; [None] when a bound
          stays symbolic *)
  b_move_in_nests : int;
  b_move_out_nests : int;
  b_inter_tile_reuse : bool;
      (** the buffer carries the inter-tile delta: chain-interior
          blocks move only the footprint difference *)
}

type verdict = {
  v_array : string;
  v_members : int;  (** data spaces in the partition *)
  v_rank_reuse : bool;
      (** Algorithm 1 criterion (a): some reference's access function
          restricted to the iterators has rank < iteration depth *)
  v_overlap_fraction : float option;
      (** criterion (b) evidence, compared against delta *)
  v_delta : float;
  v_beneficial : bool;
  v_copied : bool;  (** differs from beneficial only under [`Cell] *)
  v_buffer : buffer_summary option;
}

val explain : ?param_env:(string -> Zint.t) -> t -> verdict list
(** One verdict per partition, buffered partitions first.
    [param_env] (default: everything 0) evaluates buffer footprints. *)

val explain_json :
  ?capacity_words:int -> ?param_env:(string -> Zint.t) -> t -> Emsc_obs.Json.t
(** Full plan report: program summary, per-partition verdicts, and
    footprint totals (compared against [capacity_words] when given). *)
