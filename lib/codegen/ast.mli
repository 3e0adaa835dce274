(** Loop-nest AST produced by the code generators and consumed by the
    emitters and the machine simulator.

    Index expressions are affine terms over named integer variables
    with floor/ceil division and min/max, which is exactly what
    polyhedron scanning and rectangular tiling produce. *)

open Emsc_arith

type aexpr =
  | Var of string
  | Const of Zint.t
  | Add of aexpr * aexpr
  | Sub of aexpr * aexpr
  | Mul of Zint.t * aexpr
  | Fdiv of aexpr * Zint.t  (** floor division by a positive constant *)
  | Cdiv of aexpr * Zint.t  (** ceiling division by a positive constant *)
  | Min of aexpr list
  | Max of aexpr list

type parallelism =
  | Seq     (** ordinary sequential loop *)
  | Block   (** distributed across outer-level parallel units *)
  | Thread  (** distributed across inner-level parallel units *)

type ref_expr = { array : string; indices : aexpr array }

type stm =
  | Loop of loop
  | Guard of aexpr list * stm list
      (** run body iff every expression is [>= 0] *)
  | Stmt_call of { stmt_id : int; iter_args : aexpr array }
      (** instance of an IR statement with iterator values bound *)
  | Copy of { dst : ref_expr; src : ref_expr }
      (** data-movement assignment [dst := src] *)
  | Sync  (** barrier across the inner-level parallel units *)
  | Fence
      (** barrier bracketing a global-memory movement phase: besides
          synchronizing it drains outstanding DRAM traffic, which the
          timing model charges a memory round-trip for *)
  | Comment of string

and loop = {
  var : string;
  lb : aexpr;
  ub : aexpr;  (** inclusive *)
  step : Zint.t;
  par : parallelism;
  body : stm list;
}

val int_ : int -> aexpr
val var : string -> aexpr
val ( +: ) : aexpr -> aexpr -> aexpr
val ( -: ) : aexpr -> aexpr -> aexpr
val ( *: ) : int -> aexpr -> aexpr

val simplify : aexpr -> aexpr
(** Constant folding and flattening of nested min/max; keeps the
    expression semantically identical. *)

val subst : (string * aexpr) list -> aexpr -> aexpr

val eval : (string -> Zint.t) -> aexpr -> Zint.t
(** Evaluate under an environment. @raise Not_found for unbound
    variables (propagated from the environment function). *)

val vec_to_aexpr : names:(int -> string) -> Emsc_linalg.Vec.t -> aexpr
(** Affine row (width n+1, constant last) to an expression. *)

val loop_ : ?par:parallelism -> ?step:int -> string -> lb:aexpr -> ub:aexpr ->
  stm list -> stm

val free_vars : stm list -> string list
(** Variables read by the block that no loop inside it binds (sorted,
    unique) — used to decide how deep data-movement code can be
    hoisted (Section 4.2). *)

val pp_aexpr : Format.formatter -> aexpr -> unit
val pp_block : Format.formatter -> stm list -> unit
