(** Tiling-hyperplane search — the role of Bondhugula et al.'s
    framework [7] in the paper.

    We search small-coefficient hyperplanes common to all statements
    of equal depth.  A hyperplane [h] is legal when every dependence
    has a non-negative component along it ([h . target - h . source >=
    0] over the dependence polyhedron, checked by exact ILP); it is
    communication-free ("space") when the component is exactly zero
    for every dependence.  Legal mutually-independent hyperplanes
    form a permutable band, ordered space-first then by increasing
    communication volume — precisely the structure Section 4.1 tiles. *)

open Emsc_linalg
open Emsc_ir

type band = {
  hyperplanes : Vec.t list;
      (** iterator-coefficient vectors, length = depth; in order *)
  parallel : bool list;
      (** per hyperplane: communication-free? *)
}

val find_band : ?max_coeff:int -> Prog.t -> Deps.t list -> band
(** Greedy search over coefficient vectors with entries in
    [-max_coeff, max_coeff] (default 1), preferring parallel
    hyperplanes, then low communication; stops when [depth]
    linearly-independent hyperplanes are found or none is legal.
    Requires all statements to share one depth.  Each candidate costs
    one minimum ILP per dependence up to the first that fails, plus one
    maximum ILP per dependence when it is legal.
    The resulting matrix is completed to full rank; rows are returned
    space-first. *)

val transform_matrix : band -> depth:int -> Mat.t option
(** The band's rows as a square matrix if it is full and unimodular
    (|det| = 1), which is what {!Tile.apply_unimodular} needs. *)
