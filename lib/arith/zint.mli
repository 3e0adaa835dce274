(** Arbitrary-precision signed integers.

    Polyhedral operations (Fourier–Motzkin elimination, exact simplex,
    lattice computations) can produce coefficients that overflow
    machine integers; every algebraic layer of emsc is built on this
    module.

    Almost every value emsc meets fits a native [int], and such a value
    is held as that [int].  Each operation on two such values works on
    the [int]s directly and checks for overflow; only a result outside
    the [int] range is held as a sign–magnitude bignum over 31-bit
    limbs ({!Limbs}).  The form is canonical: a value has one
    representation, so structural equality is value equality.
    Polymorphic [compare] is not numeric order; use {!compare}. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t

val is_canonical : t -> bool
(** The representation invariant: a value that fits in a native [int]
    is never held in limbs.  Always [true]; for tests. *)

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val to_float : t -> float

val of_string : string -> t
(** Accepts an optional leading [-] followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val is_positive : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division: quotient rounds toward zero, remainder has the
    sign of the dividend. @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val fdiv : t -> t -> t
(** Floor division: rounds toward negative infinity. *)

val cdiv : t -> t -> t
(** Ceiling division: rounds toward positive infinity. *)

val fmod : t -> t -> t
(** [fmod a b = a - b * fdiv a b]; has the sign of [b] (or zero). *)

val divexact : t -> t -> t
(** Division known to be exact; checked with an assertion. *)

val gcd : t -> t -> t
(** Non-negative gcd; [gcd zero zero = zero]. *)

val lcm : t -> t -> t

val pow : t -> int -> t
(** @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t

val compare : t -> t -> int
(** Numeric order. *)

val compare_sign_magnitude : t -> t -> int
(** A total order that is not numeric: by sign, then by the number of
    31-bit limbs in the magnitude, then limb by limb from the least
    significant.  It is the order polymorphic [compare] gave the former
    all-limbs layout; code that sorts only to get a canonical order uses
    it so its output keeps that order. *)

val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

val pp : Format.formatter -> t -> unit

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
