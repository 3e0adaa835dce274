(** Reference executor: runs a polyhedral program directly from its
    domains and schedules (global lexicographic order), with exact
    semantics.  Used as ground truth when validating transformed code
    and as the CPU-baseline workload.  It evaluates statement bodies
    with its own tree walker, never through {!Exec}'s lowered code, so
    the oracle stays independent of the executor it checks. *)

open Emsc_arith
open Emsc_ir

val domain_points :
  Prog.stmt -> np:int -> param_values:Zint.t array -> Zint.t array list
(** Integer points of the statement's domain with its [np] trailing
    parameter dimensions fixed to [param_values], in lexicographic
    order.  One emptiness LP, then {!Emsc_poly.Count.iter_ranges}'s
    walk over the domain's Fourier–Motzkin levels.
    @raise Invalid_argument on an unbounded domain. *)

val instances : Prog.t -> param_env:(string -> Zint.t) ->
  (Prog.stmt * Zint.t array) list
(** Every dynamic statement instance, sorted by schedule time.
    Intended for small problem sizes (it materializes the list). *)

val run :
  Prog.t -> param_env:(string -> Zint.t) -> Memory.t ->
  ?on_global:(string -> int -> [ `Ld | `St ] -> unit) ->
  unit -> Exec.counters
