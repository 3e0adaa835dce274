(** Data spaces of array references (Section 3.1 of the paper).

    The data space of a reference is the image of the statement's
    iteration domain under the affine access function.  Spaces live in
    dimension [nparams + rank]: parameter dimensions first (so they can
    stay symbolic, e.g. tile origins), then the array dimensions.

    The spaces of one array are partitioned into maximal groups of
    pairwise-overlapping regions by connected components of the overlap
    graph, exactly as in the paper. *)

open Emsc_poly
open Emsc_ir

type dspace = {
  stmt : Prog.stmt;
  access : Prog.access;
  space : Poly.t;  (** dimension [nparams + rank] *)
}

type partition = {
  array : string;
  rank : int;
  members : dspace list;
  union : Uset.t;  (** union of all member spaces *)
}

val space_of_access : Prog.t -> Prog.stmt -> Prog.access -> Poly.t
(** Image of the statement domain under the access, parameters kept. *)

val spaces_of_array : Prog.t -> string -> dspace list

val partition_array : Prog.t -> string -> partition list
(** Connected components of the overlap graph of one array's spaces. *)

val partition_all : Prog.t -> partition list
(** All arrays of the program, in declaration order. *)

val merge_partitions : partition list -> partition
(** Merge several partitions of the same array into one (the paper's
    Figure 1 allocates a single buffer per array even when the data
    spaces split into disjoint groups).
    @raise Invalid_argument on an empty list or mixed arrays. *)

val reads_union : Prog.t -> partition -> Uset.t
(** Union of the member spaces whose access reads. *)

val writes_union : Prog.t -> partition -> Uset.t

val instantiate_union :
  Prog.t -> env:(string -> Emsc_arith.Zint.t) -> Uset.t -> Uset.t
(** Fix the leading parameter dimensions of a data-space union to their
    values under [env]: the result lives in the array dimensions only. *)

val exact_image : Prog.stmt -> Prog.access -> bool
(** Is the access's data space (a rational image of the iteration
    domain) guaranteed to contain no integer point the access never
    touches?  Sufficient syntactic test: every iterator coefficient is
    in [{-1,0,1}] and the iterator part of the map reduces by greedy
    pivoting (repeatedly discharging a row that owns an iterator with a
    unit coefficient appearing in no other remaining row).  A stride-2
    subscript like [A[2j]] fails the test: its rational image covers
    the odd elements the access skips.  [false] only means "not
    provably exact" — callers must treat the space as possibly
    over-approximate (see the move-in widening in
    {!Emsc_core.Plan.plan_block}). *)
