(** Differential oracle: transformed execution versus the reference
    interpreter, bit-for-bit.

    Equality (not approximate closeness) is the right notion here: a
    correct plan only re-routes loads and stores through scratchpad
    buffers and never re-associates arithmetic, so every float produced
    must be identical to the reference run.  Both executions start from
    the same pseudorandom memory image ({!Emsc_driver.Runner}'s
    deterministic initializer).

    Both harnesses are {!Emsc_driver.Runner.simulate} in [Full] mode:
    - compilations with a generated kernel ([tiled <> None]) run the
      tiled AST;
    - untiled compilations replay the reference instance stream (exact
      schedule order) with accesses rewritten into the plan's buffers,
      bracketed by the plan's move-in and move-out code — this
      validates allocation, access rewriting and movement in
      isolation from the (separately tested) tiling transformation. *)

open Emsc_arith
open Emsc_driver

val check_compiled :
  ?backend:Runner.backend ->
  param_env:(string -> Zint.t) ->
  Pipeline.compiled ->
  (unit, string) result
(** [Error reason] on the first mismatching array element, on a missing
    plan, or on an execution failure (the reason says which).

    [backend] (default [`Seq]) selects how the tiled harness executes.
    Under [`Par jobs] the kernel runs block-parallel with the
    write-ownership tracker armed, and two extra conditions are
    enforced on top of array equality with the reference: no
    cross-block ownership violation, and reduced counter totals
    bit-identical to a sequential [Full] replay.  Untiled compilations
    ignore [backend] (their harness has no block structure). *)
