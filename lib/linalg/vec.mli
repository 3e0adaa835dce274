(** Dense integer vectors (over {!Emsc_arith.Zint}). *)

open Emsc_arith

type t = Zint.t array

val make : int -> t
(** Zero vector of the given length. *)

val of_ints : int list -> t
val of_array : int array -> t
val to_ints_exn : t -> int list
val copy : t -> t
val length : t -> int

val unit : int -> int -> t
(** [unit n i] is the [n]-length vector with 1 in position [i]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Zint.t -> t -> t

val combine : Zint.t -> t -> Zint.t -> t -> t
(** [combine a x b y = a*x + b*y]. *)

val dot : t -> t -> Zint.t
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val content : t -> Zint.t
(** Gcd of all entries (non-negative); zero for the zero vector. *)

val normalize : t -> t
(** Divide by the content; identity on the zero vector. *)

val append : t -> t -> t

val insert : t -> int -> Zint.t -> t
(** [insert v pos x] returns a vector one longer with [x] at [pos]. *)

val remove : t -> int -> t
(** Remove the entry at the given position. *)

val pp : Format.formatter -> t -> unit
