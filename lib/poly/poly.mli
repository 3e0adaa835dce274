(** Convex rational polyhedra with integer constraint coefficients.

    A polyhedron of dimension [n] is a conjunction of affine
    constraints over variables [x0..x_{n-1}].  Constraint vectors have
    length [n + 1]; vector [a] encodes [a.(0)*x0 + ... + a.(n-1)*x_{n-1}
    + a.(n) {>=,=} 0].  Inequalities are kept integer-tightened: the
    variable part is divided by its gcd and the constant floored, which
    is exact on integer points (the objects the compiler reasons
    about). *)

open Emsc_arith
open Emsc_linalg

type t = private { dim : int; eqs : Vec.t list; ineqs : Vec.t list }

val bottom : int -> t
(** The canonically-empty polyhedron (constraint [-1 >= 0]). *)

val make : dim:int -> eqs:Vec.t list -> ineqs:Vec.t list -> t
val of_ineqs : dim:int -> int list list -> t
(** Convenience: inequality rows given as [int] lists of length dim+1. *)

val dim : t -> int
val constraints : t -> Vec.t list * Vec.t list
(** [(eqs, ineqs)]. *)

val add_eq : t -> Vec.t -> t
val add_ineq : t -> Vec.t -> t
val intersect : t -> t -> t

val is_trivially_empty : t -> bool
val is_empty : t -> bool
(** Rational emptiness, decided by LP.  (Integer emptiness lives in
    [Emsc_pip.Ilp].) *)

val contains_point : t -> Vec.t -> bool
(** Integer point membership; the point has length [dim]. *)

val sample_rational : t -> Q.t array option

val eliminate_dim : t -> int -> t
(** Fourier–Motzkin elimination of one variable; result has [dim - 1]
    dimensions (later variables shift down). *)

val eliminate_dims : t -> int list -> t

val image : t -> Mat.t -> t
(** [image p f]: image of [p] under the affine map [y = f * (x, 1)];
    [f] has [dim p + 1] columns; result dimension = rows of [f].
    Computed by rational projection (see DESIGN.md). *)

val preimage : t -> Mat.t -> t
(** [preimage p f]: [{ x | f * (x,1) ∈ p }]; [f] has [dim p] rows;
    result dimension = cols of [f] - 1. *)

val insert_dims : t -> pos:int -> count:int -> t
(** Add unconstrained dimensions at position [pos]. *)

val translate : t -> Vec.t -> t
(** [translate p v] shifts the polyhedron by integer vector [v]
    (length [dim]). *)

val fix_dim : t -> int -> Zint.t -> t
(** [fix_dim p j v] substitutes [x_j = v]; the result has [dim - 1]
    dimensions (later variables shift down). *)

val var_bounds : t -> int -> Q.t option * Q.t option
(** Rational (min, max) of a variable; [None] means unbounded. *)

val var_bounds_int : t -> int -> Zint.t option * Zint.t option
(** Integer-tightened bounds: ceil of the min, floor of the max. *)

val dim_bound_pairs : t -> int -> (Zint.t * Vec.t) list * (Zint.t * Vec.t) list
(** Syntactic bounds on variable [j] from the constraints that mention
    it: [(lowers, uppers)] where a lower [(a, e)] means
    [a * x_j >= -e(x)] with [a > 0] (i.e. [x_j >= ceil(-e/a)]) and an
    upper [(a, e)] means [a * x_j <= e(x)] with [a > 0].  [e] ranges
    over all dimensions (with the [j] entry zeroed) plus constant. *)

val implies : t -> Vec.t -> bool
(** [implies p row]: does [row >= 0] hold on every rational point of
    [p]?  True for empty [p]. *)

val is_subset : t -> t -> bool
(** [is_subset p q]: does every rational point of [p] lie in [q]? *)

val remove_redundant : t -> t
(** Drop inequalities implied by the rest (LP test) and detect implicit
    equalities. *)

val affine_hull : t -> Vec.t list
(** Equalities satisfied by every (rational) point: explicit equalities
    plus implicit ones (inequalities whose max over the set is 0). *)

val equal_set : t -> t -> bool
(** Mutual inclusion (rational). *)

val pp : Format.formatter -> t -> unit
val pp_named : string array -> Format.formatter -> t -> unit
(** Pretty-print with variable names. *)

val to_string : ?names:string array -> t -> string
