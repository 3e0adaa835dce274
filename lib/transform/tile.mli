(** Multi-level rectangular tiling (Section 4.1) with automatic
    placement of data-movement code (Section 4.2).

    Tiling levels, outermost first, mirror Figure 3:
    - [block]: distributes tiles of the space loops across outer-level
      parallel units (thread blocks);
    - [mem]: further sequential sub-tiling inside a block tile, the
      level "introduced to satisfy the local memory limit";
    - [thread]: distributes the sub-tile's space iterations across
      inner-level parallel units (threads).

    Movement code is placed at the deepest loop level that binds all
    its free variables (tile origins); a tiling loop that is redundant
    for a buffer therefore ends up *below* the buffer's movement code —
    exactly the paper's hoisting rule. *)

open Emsc_linalg
open Emsc_ir
open Emsc_codegen

type dim_spec = {
  block : int option;
  mem : int option;
  thread : int option;
}

val no_tiling : dim_spec

type spec = dim_spec array  (** per (transformed) iterator dimension *)

val spec_of_lists :
  depth:int -> block:int array -> mem:int array -> thread:int array -> spec
(** Per-dimension sizes from the three tile lists of the CLI and the
    daemon protocol: entry [j] of a list tiles dimension [j] at that
    level when present and positive; entries past [depth] are
    ignored. *)

val apply_unimodular : Prog.t -> Mat.t -> Prog.t
(** Rewrite every statement under iterators [y = U x]; [U] must be
    square unimodular over the common depth.
    @raise Invalid_argument if [U] is not invertible over the
    integers. *)

val origin_context : Prog.t -> spec -> Emsc_poly.Poly.t
(** Polyhedron over the tile program's parameters (original parameters
    unconstrained, each origin within its dimension's loop range).
    Pass as [param_context] to {!Emsc_core.Plan.plan_block} so movement
    code is not littered with guards the tiling loops already
    guarantee — those spurious guards would also defeat hoisting. *)

val tile_program : Prog.t -> spec -> Prog.t
(** The "tile block" program handed to the Section 3 framework: tile
    origins become program parameters and each statement's domain is
    restricted to one atomic tile. *)

val movement_profile :
  Prog.t -> spec -> Ast.stm list * Ast.stm list -> float
(** Number of times the movement pair executes per block tile — the
    [∏ N_i / t_i] factor of the Section 4.3 cost model: the product of
    the trip counts of the sequential (mem-level) tiling loops the pair
    is placed inside, honouring the hoisting rule. *)

val block_tile_count : Prog.t -> spec -> float
(** Number of block tiles the spec carves the iteration space into:
    the product of the block-level trip counts ([1.0] with no block
    tiling).  With {!movement_profile} this scales a per-block
    prediction to a whole-program total.
    @raise Invalid_argument on multi-statement programs or unbounded
    domains, like {!movement_profile}. *)

val inter_tile_origin : Prog.t -> spec -> (string * int * string list) option
(** The origin the inter-tile delta movement is keyed on:
    [(origin parameter name, block size, mem-origin names)] of the
    innermost block-tiled dimension — the loop sequential task
    enumeration varies fastest, so consecutive tasks of a chain are
    consecutive values of this origin.  [None] when no dimension is
    block-tiled, or the innermost one is also mem-tiled (its block
    origin is then not a parameter of the tile program).  The
    mem-origin names let the planner refuse the delta for buffers whose
    movement sits inside a mem loop (re-staged per mem iteration, so
    block-to-block residency does not exist for them). *)

val generate :
  Prog.t -> spec -> movement:(Ast.stm list * Ast.stm list) list ->
  Ast.stm list
(** Tiled loop nest for a single-statement program with constant
    rectangular bounds.  Each [(move_in, move_out)] pair (one per
    buffer) references the origin parameter names from
    {!origin_names}; each pair is placed independently at the deepest
    level binding its free variables and bracketed by barriers, so a
    buffer whose data does not depend on an inner tiling loop keeps
    its contents across that loop's iterations (the paper's reuse
    across computational blocks). *)
