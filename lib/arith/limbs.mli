(** Sign–magnitude integers over 31-bit limbs: the big case of {!Zint}.

    {!Zint} holds every value that fits a native [int] as that [int]
    and calls into this module only when a result leaves the [int]
    range.  Nothing else should use it; it is exposed so the tests can
    check {!Zint} against it operation by operation. *)

type t

val of_int : int -> t

val to_int_opt : t -> int option
(** [Some n] when the value fits in a native [int]. *)

val to_float : t -> float

val of_string : string -> t
(** Optional leading [-] or [+], then decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val sign : t -> int
val is_zero : t -> bool
val compare : t -> t -> int
(** Numeric order. *)

val compare_layout : t -> t -> int
(** By sign, then by the number of limbs of the magnitude, then limb by
    limb from the least significant: not numeric for negative values
    or multi-limb magnitudes. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division, like OCaml's [/] and [mod].
    @raise Division_by_zero. *)

val shift_left : t -> int -> t
(** [shift_left x k] is [x * 2^k], [0 <= k]. *)
