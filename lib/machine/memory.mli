(** Simulated memory: flat float arrays for the program's global
    arrays, and for each scratchpad buffer a dense window over the
    index box its writes have touched (it grows when a write lands
    outside it). *)

open Emsc_arith
open Emsc_ir

type t

val create : Prog.t -> param_env:(string -> Zint.t) -> t
(** Allocates every declared array, zero-initialized. *)

val create_phantom : Prog.t -> param_env:(string -> Zint.t) -> t
(** Shape-only memory: every array is backed by a single cell, reads
    and writes ignore indices.  For sampled timing runs over problem
    sizes whose arrays would not fit in host memory; never use for
    correctness runs. *)

val declare_local : t -> string -> unit
val is_local : t -> string -> bool

val read_global : t -> string -> int array -> float
val write_global : t -> string -> int array -> float -> unit
val read_local : t -> string -> int array -> float
val write_local : t -> string -> int array -> float -> unit

(** {2 Resolved buffers}

    The executor resolves each buffer name once per block, then moves
    values between a buffer and one cell of a [float array] it owns: a
    load writes [dst.(c)], a store reads [src.(c)].  No float is
    returned or passed, so a load or store allocates nothing; only a
    local store that grows its window allocates the new window.

    The general forms take the [n] indices of an access as the prefix
    [idx.(0) .. idx.(n - 1)] of a scratch array the caller owns; the
    [2] forms take the indices of a rank-2 access as arguments.  Every form checks and fails as {!read_global},
    {!write_global}, {!read_local} and {!write_local} do, with the same
    messages. *)

type global
(** One global array: its data, dims and base address. *)

val find_global : t -> string -> global option

val global_load : global -> int array -> int -> float array -> int -> unit
val global_load2 : global -> int -> int -> float array -> int -> unit

val global_store : global -> int array -> int -> float array -> int -> unit
val global_store2 : global -> int -> int -> float array -> int -> unit
(** Bounds-checked like {!read_global}; a phantom array ignores the
    indices. *)

val global_address : global -> int array -> int -> int
(** Base address plus row-major offset, bounds-checked (phantom
    arrays included). *)

type local
(** One local buffer of one memory view. *)

val find_local : t -> string -> local option

val local_load : local -> int array -> int -> float array -> int -> unit
val local_load2 : local -> int -> int -> float array -> int -> unit
(** A cell never written reads as [0.0]. *)

val local_store : local -> int array -> int -> float array -> int -> unit

val local_store2 :
  local -> int array -> int -> int -> float array -> int -> unit
(** [local_store2 l idx i j src c]: the indices follow the scratch
    array [idx], which a store outside the window fills before it grows
    the window through {!local_store}.
    @raise Invalid_argument if the buffer was written with another
    number of indices before, or its window would pass 2{^24} cells. *)

val flat_index : t -> string -> int array -> int
(** Row-major flattened index (for cache simulation addresses). *)

val base_address : t -> string -> int
(** Word address of the array in a virtual address space. *)

val global_data : t -> string -> float array
val dims : t -> string -> int array

val fork_view : t -> t
(** A new memory sharing this one's global arrays physically (writes
    through any view are visible to all) but with private local
    buffers, one per name declared in the source view, all empty.  The
    unit of isolation for per-block scratchpad arenas: concurrent
    views may touch disjoint global cells and their own locals without
    interference. *)

val clear_locals : t -> unit
(** Drop every cell of every local buffer (declarations survive).
    Lets an arena view be recycled between blocks. *)

val local_words : t -> int
(** Total distinct cells currently held across all local buffers — the
    view's live scratchpad footprint in words. *)

val local_occupancy : t -> (string * int) list
(** Per local buffer, the number of distinct cells ever written, sorted
    by name.  Buffers are never freed (only {!clear_locals} empties
    them), so this is the
    cumulative footprint of every window the buffer held — an upper
    bound on (and for a single-block run, exactly) its peak scratchpad
    occupancy in words. *)

val fill : t -> string -> (int array -> float) -> unit
(** Initialize an array pointwise. *)

val arrays_equal : ?eps:float -> t -> t -> string -> bool
(** Compare one array's contents across two memories. *)
