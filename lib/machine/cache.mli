(** Set-associative LRU cache simulator (baseline timing for
    cache-shaped hierarchy levels). *)

type t

type stats = {
  mutable hits : float;
  mutable misses : float;
}

val create :
  size_bytes:int -> line_bytes:int -> assoc:int -> word_bytes:int -> t

val access : t -> int -> bool
(** [access c word_addr] returns whether the access hit, updating LRU
    state. *)

val stats : t -> stats
val reset : t -> unit

(** Multi-level inclusive lookup over the cache-shaped levels of a
    {!Hierarchy}, innermost first; an access missing every simulated
    level counts against the home. *)
module Sim : sig
  type h

  val create : Hierarchy.t -> h
  val num_levels : h -> int
  (** Simulated cache levels (the home is not one of them). *)

  val access : h -> int -> int
  (** Index of the level that served the access, [num_levels] for the
      home. *)

  val hits : h -> float array
  (** Per simulated level, innermost first. *)

  val home_accesses : h -> float
  val level_names : h -> string array
  val home_name : h -> string
end
