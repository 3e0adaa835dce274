(** Exact rational numbers over {!Zint}.

    Values are kept in canonical form: the denominator is strictly
    positive and gcd(num, den) = 1.  Used throughout the polyhedral
    layer (simplex pivots, Fourier–Motzkin coefficients, volumes). *)

type t = private { num : Zint.t; den : Zint.t }

val zero : t
val one : t
val minus_one : t

val make : Zint.t -> Zint.t -> t
(** [make num den] in canonical form. @raise Division_by_zero. *)

val of_zint : Zint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den]. *)

val num : t -> Zint.t
val den : t -> Zint.t

val neg : t -> t
val abs : t -> t
val inv : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Zint.t
val ceil : t -> Zint.t

val to_float : t -> float

val to_string : t -> string
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
