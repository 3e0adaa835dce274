(** Convenience constructors for polyhedral programs (used by the
    kernel library, the parser, and tests). *)

open Emsc_poly

val box_domain : np:int -> (int * int) list -> Poly.t
(** Constant rectangular domain: one [(lo, hi)] per iterator;
    dimension = depth + np (parameters unconstrained). *)

val domain_rows : np:int -> depth:int -> int list list -> Poly.t
(** Domain from inequality rows (width depth+np+1). *)

val schedule_2d1 : np:int -> depth:int -> beta:int list -> Emsc_linalg.Mat.t
(** Classic 2d+1 schedule: [beta] has [depth+1] syntactic positions;
    rows alternate constant-position rows and iterator rows. *)

val stmt :
  id:int -> name:string -> np:int -> depth:int ->
  ?iter_names:string array ->
  domain:Poly.t ->
  ?writes:Prog.access list ->
  ?reads:Prog.access list ->
  ?body:(Prog.access * Prog.expr) ->
  beta:int list ->
  unit -> Prog.stmt

val array2 : string -> int -> int -> np:int -> Prog.array_decl
(** Rank-2 array with constant extents. *)

val array1 : string -> int -> np:int -> Prog.array_decl
