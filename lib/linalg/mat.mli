(** Dense integer matrices (rows of {!Vec.t}) with the exact linear
    algebra the polyhedral layer needs: Bareiss rank, rational
    nullspace with integer basis, Hermite normal form, and solving. *)

open Emsc_arith

type t = Vec.t array
(** Row-major; all rows share one length.  The empty matrix [[||]] is
    allowed and has 0 rows. *)

val make : int -> int -> t
val of_ints : int list list -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val copy : t -> t
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val transpose : t -> t
val mul : t -> t -> t
val mul_vec : t -> Vec.t -> Vec.t
val add : t -> t -> t
val equal : t -> t -> bool
val append_rows : t -> t -> t

val rank : t -> int
(** Rank over the rationals (fraction-free Bareiss elimination). *)

val det : t -> Zint.t
(** Determinant of a square matrix. @raise Invalid_argument otherwise. *)

val nullspace : t -> Vec.t list
(** Integer basis of the right nullspace \{x | M x = 0\} over Q;
    each basis vector is content-normalized. *)

val solve : t -> Vec.t -> (Q.t array) option
(** [solve m b] finds a rational solution of [m x = b], or [None] if
    the system is inconsistent.  Free variables are set to zero. *)

val hermite_normal_form : t -> t * t
(** [hermite_normal_form m] is [(h, u)] with [h = u * m], [u]
    unimodular, and [h] in row-style Hermite normal form (pivots
    positive, entries above each pivot reduced, zero rows last). *)

val pp : Format.formatter -> t -> unit
