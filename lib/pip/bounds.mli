(** Parametric loop bounds by ordered Fourier–Motzkin elimination.

    This is the role PIP/CLooG play in the paper when buffer extents
    and scanning loops must be expressed as affine functions of outer
    variables and program parameters: eliminating dimensions from the
    innermost outwards leaves, at each level [j], the bounds of [x_j]
    as affine forms over [x_0 .. x_{j-1}] (which include any leading
    parameter dimensions). *)

open Emsc_arith
open Emsc_linalg
open Emsc_poly

type level = {
  lowers : (Zint.t * Vec.t) list;
      (** [(a, e)] encodes [a * x_j + e >= 0] with [a > 0], i.e.
          [x_j >= ceil(-e / a)]; [e] has width [j + 2] with the entry
          at position [j] zero (coefficients of [x_0..x_{j-1}] and a
          constant). *)
  uppers : (Zint.t * Vec.t) list;
      (** [(a, e)] encodes [x_j <= floor(e / a)] with [a > 0]. *)
}

val loop_bounds : Poly.t -> level array
(** [loop_bounds p] computes, for each dimension [j] of [p] in order,
    the bounds of [x_j] in terms of earlier dimensions only.  Each
    intermediate projection is redundancy-reduced so the generated
    [min]/[max] bound sets stay small.  A dimension whose bound set is
    empty on one side is unbounded there. *)
