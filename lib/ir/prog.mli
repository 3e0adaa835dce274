(** Polyhedral program IR.

    A program (the paper's "program block") is a set of statements,
    each with an iteration domain, affine array accesses, an executable
    body, and an affine schedule.  Dimension convention for a statement
    of depth [d] in a program with [np] parameters: vectors over the
    statement's space have width [d + np + 1] — iterator columns first,
    then parameter columns, then the constant. *)

open Emsc_linalg
open Emsc_poly

type access_kind = Read | Write

type access = {
  array : string;
  kind : access_kind;
  map : Mat.t;
      (** rows = array rank; cols = depth + nparams + 1 *)
}

(** Executable statement bodies, interpreted over float arrays. *)
type expr =
  | Eref of access  (** read the array element the access maps to *)
  | Eiter of int    (** value of the i-th surrounding iterator *)
  | Eparam of int   (** value of the i-th program parameter *)
  | Econst of float
  | Eneg of expr
  | Eabs of expr
  | Eadd of expr * expr
  | Esub of expr * expr
  | Emul of expr * expr
  | Ediv of expr * expr
  | Emin of expr * expr
  | Emax of expr * expr

type stmt = {
  id : int;
  name : string;
  depth : int;
  domain : Poly.t;   (** dimension [depth + nparams] *)
  iter_names : string array;
  writes : access list;  (** usually one *)
  reads : access list;
  body : (access * expr) option;
      (** [lhs, rhs]; [None] for analysis-only statements *)
  schedule : Mat.t;
      (** rows = schedule depth (uniform per program after padding);
          cols = depth + nparams + 1 *)
}

type array_decl = {
  array_name : string;
  rank : int;
  extents : Vec.t array;
      (** per-dimension extent, affine in parameters: width nparams+1;
          dimension [k] is indexed [0 .. extent_k - 1] *)
}

type t = {
  params : string array;
  arrays : array_decl list;
  stmts : stmt list;
}

val nparams : t -> int
val find_array : t -> string -> array_decl
val find_stmt : t -> int -> stmt
val accesses : stmt -> access list
(** writes @ reads *)

val all_accesses_to : t -> string -> (stmt * access) list

val mk_access :
  array:string -> kind:access_kind -> rows:int list list -> access
(** Rows given as int lists of width depth+nparams+1. *)

val validate : t -> (unit, string) result
(** Structural checks: dimensions of domains, access maps, schedules,
    and array ranks are mutually consistent; referenced arrays are
    declared. *)

val max_schedule_rows : t -> int
val pad_schedules : t -> t
(** Pad every schedule with zero rows up to the maximum, so
    lexicographic comparison is well-defined across statements. *)

val pp : Format.formatter -> t -> unit
