(** Data-movement code generation (Section 3.1.3) and the
    dependence-driven copy-set minimization the paper sketches as
    future work in Section 3.1.4 (implemented here).

    Move-in code scans the union of the data spaces accessed by read
    references; move-out code scans the union for write references.
    Scanning goes through {!Emsc_codegen.Scan}, whose disjoint
    decomposition guarantees a single transfer per element even when
    reference footprints overlap. *)

open Emsc_arith
open Emsc_poly
open Emsc_ir
open Emsc_codegen

val copy_code :
  ?context:Poly.t -> Prog.t -> Alloc.buffer -> dir:[ `In | `Out ] ->
  data:Uset.t -> Ast.stm list
(** Loop nest copying [data] (dimension nparams+rank) between the
    original array and the local buffer.  [`In] copies global → local,
    [`Out] local → global. *)

val shift_code :
  ?context:Poly.t -> Prog.t -> Alloc.buffer -> shift:int array ->
  data:Uset.t -> Ast.stm list
(** Local-to-local relocation of the resident slab for inter-tile
    reuse: scans [data] (the resident set, in global coordinates) and
    copies each cell from its previous-block local address
    [idx + shift] to its current one [idx].  [shift] is per kept dim
    and must be non-negative (ascending scan order then never
    overwrites a cell before reading it); an all-zero shift returns
    [[]] — resident cells already sit at the right addresses. *)

val move_in : ?context:Poly.t -> Prog.t -> Alloc.buffer -> Ast.stm list
(** Copy-in of everything read in the partition. *)

val move_out : ?context:Poly.t -> Prog.t -> Alloc.buffer -> Ast.stm list
(** Copy-out of everything written in the partition. *)

val optimized_move_in_data : Prog.t -> Deps.t list -> Alloc.buffer -> Uset.t
(** Section 3.1.4: only elements read by some instance whose producing
    write lies outside the block (equivalently: not covered by any
    intra-block flow dependence), plus of course data of arrays never
    written in the block. *)

val optimized_move_out_data :
  Prog.t -> live_out:(string -> bool) -> Alloc.buffer -> Uset.t
(** Elements written in the block that the outside world may observe;
    with no inter-block liveness information this is the write union of
    live-out arrays and empty for block-local arrays. *)

val volume_upper_bound :
  Prog.t -> Dataspaces.partition -> kind:[ `Read | `Write ] ->
  env:(string -> Zint.t) -> Zint.t option
(** The paper's Vin/Vout estimate: partition the read (write) spaces
    into maximal non-overlapping groups and sum the local-storage box
    sizes of the groups, under a parameter valuation.  [None] when any
    group is unbounded (uncountable): the bound is unknown, and callers
    like tile-size search must treat it pessimistically rather than as
    zero movement. *)
