(** The canonical EMSC compilation pipeline, typed and memoized:

    {v
    parse -> deps -> hyperplanes -> [tilesearch] -> [tile] -> plan -> codegen
    v}

    Every entry point of the repo (CLI subcommands, the bench harness,
    the examples, the kernel suite) builds compilations exclusively
    through this module; the duplicated parse→plan glue they used to
    carry lives here once.

    Stage results are memoized by content ({!Cache}): a repeated
    compilation of the same source with the same options skips the
    hyperplane search, the tile-size search and [Plan.plan_block] —
    the three dominant costs.  {!compile_many} compiles independent
    jobs in parallel worker processes with deterministic result
    ordering. *)

open Emsc_ir
open Emsc_core
open Emsc_transform

type tiled = {
  spec : Tile.spec;
  tiled_prog : Prog.t;
      (** the "tile block" program the Section 3 framework plans *)
  context : Emsc_poly.Poly.t;  (** tile-origin parameter context *)
  ast : Emsc_codegen.Ast.stm list;  (** generated kernel with movement *)
}

type compiled = {
  source_name : string;
  digest : string;  (** content digest of the source program *)
  options : Options.t;
  prog : Prog.t;    (** original (untiled) program *)
  deps : Deps.t list option;       (** [None] before [Dependences] *)
  band : Hyperplanes.band option;  (** [None]: not requested, or none exists *)
  searched : Tilesearch.candidate option;  (** tile-size search pick *)
  tiled : tiled option;            (** [None] when compiling untiled *)
  plan : Plan.t option;            (** [None] before [Full] *)
  movement : (Emsc_codegen.Ast.stm list * Emsc_codegen.Ast.stm list) list;
      (** per-buffer (move-in, move-out); [[]] when not staging *)
  timings : Stage.timing list;     (** in stage order *)
  cache_hits : int;                (** over this compilation's stages *)
  cache_misses : int;
}

type job = { source : Source.t; options : Options.t }

val job : ?options:Options.t -> Source.t -> job

val compile : ?cache:Cache.t -> job -> (compiled, Frontend.error) result
(** Runs the pipeline up to [job.options.stop].  Stage failures
    (unbounded buffers, tiling constraint violations, ...) come back
    as [Error], never [exit]. *)

val compile_source :
  ?cache:Cache.t -> ?options:Options.t -> Source.t ->
  (compiled, Frontend.error) result

val compile_many :
  ?cache:Cache.t -> ?jobs:int ->
  ?compile_one:(cache:Cache.t -> job -> (compiled, Frontend.error) result) ->
  job list ->
  (compiled, Frontend.error) result list
(** Compiles independent jobs in parallel forked workers ([jobs]
    defaults to {!default_jobs}; values [<= 1], singleton batches, and
    Windows fall back to in-process sequential compilation, and so does
    a worker's share of the jobs when OCaml refuses to fork because
    another domain is running).  Results
    are in input order regardless of completion order.

    Failures never collapse: a job whose compile raises comes back as
    that job's own [Error] (origin = its source name, message = the
    exception), and because workers stream results per job, a worker
    that dies mid-batch yields a named [Error] for each job it had not
    yet reported — carrying the worker's exit status — while every
    result it already streamed survives.

    [compile_one] (default {!compile}) is a test hook: injecting a
    raising or process-aborting function exercises those error paths
    deterministically.

    Worker cache *stores* land in the shared on-disk layer; the
    parent's in-memory counters only see its own lookups. *)

val default_jobs : unit -> int

val search_problem : Prog.t -> Options.tile_search -> Tilesearch.problem
(** The Section 4.3 problem the [tilesearch] stage solves, exposed so
    callers can inspect the cost landscape the search walked. *)

val report_json : compiled -> Emsc_obs.Json.t
(** Per-stage timing rows with cache verdicts, plus hit/miss totals —
    the ["pipeline"] object of [emsc analyze --json]. *)
