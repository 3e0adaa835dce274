(** Counting integer points of polyhedra and unions.

    Used for the constant-reuse test of Algorithm 1 (overlap volume
    versus total volume, threshold δ) and for data-movement volume
    estimates.  The counter projects the polyhedron once by
    Fourier–Motzkin elimination, then walks the integer values of
    [x_0 .. x_{n-2}] between the projected bounds and adds the integer
    extent of the innermost variable at each prefix: one LP (the
    rational emptiness test) per polyhedron, not one per point.  A
    [limit] caps the work for callers that only need "more than N or
    not". *)

open Emsc_arith

type result =
  | Exact of Zint.t
  | More_than of Zint.t  (** hit the [limit]; true count is larger *)
  | Unbounded

val iter_ranges :
  Poly.t -> (Zint.t array -> Zint.t -> Zint.t -> unit) ->
  [ `Bounded | `Unbounded ]
(** The walk both {!count_poly} and the reference executor's point
    enumeration use.  For each integer prefix [x_0 .. x_{n-2}] between
    its projected bounds, in lexicographic order, [iter_ranges p f]
    calls [f x lo hi]: [x.(0) .. x.(n-2)] hold the prefix and
    [lo .. hi] is the integer range of [x_{n-1}] there, empty when
    [lo > hi].  [x] has length [n] and is reused across calls.  A
    non-empty 0-dimensional [p] is one point: one call with [x = [||]]
    and [lo = hi = 0].  One LP (the rational emptiness test), then
    arithmetic only; exceptions raised by [f] propagate.  [`Unbounded]
    before any call when [p] is rationally non-empty and unbounded in
    some dimension. *)

val count_poly : ?limit:int -> Poly.t -> result
(** [Unbounded] when the polyhedron is rationally non-empty and
    unbounded in some dimension, even if it has no integer point;
    [More_than (limit + 1)] when the count exceeds [limit]. *)

val count_uset : ?limit:int -> Uset.t -> result
(** The union is made disjoint first, so overlaps are not
    double-counted. *)

val box_volume_uset : Uset.t -> Zint.t option
(** Extent product of the union's bounding box. *)

val to_float : result -> float
(** [Exact n] and [More_than n] map to [n]; [Unbounded] to [infinity]. *)
