open Emsc_ir
open Emsc_core
open Emsc_transform
open Emsc_obs

type tiled = {
  spec : Tile.spec;
  tiled_prog : Prog.t;
  context : Emsc_poly.Poly.t;
  ast : Emsc_codegen.Ast.stm list;
}

type compiled = {
  source_name : string;
  digest : string;
  options : Options.t;
  prog : Prog.t;
  deps : Deps.t list option;
  band : Hyperplanes.band option;
  searched : Tilesearch.candidate option;
  tiled : tiled option;
  plan : Plan.t option;
  movement : (Emsc_codegen.Ast.stm list * Emsc_codegen.Ast.stm list) list;
  timings : Stage.timing list;
  cache_hits : int;
  cache_misses : int;
}

type job = { source : Source.t; options : Options.t }

let job ?(options = Options.default) source = { source; options }

let spec_of_search (ts : Options.tile_search) t =
  Array.init (Array.length t) (fun j ->
    { Tile.block = ts.Options.search_block.(j); mem = Some t.(j);
      thread = None })

let search_problem prog (ts : Options.tile_search) =
  Tilesearch.pipeline_problem ~prog
    ~spec_of:(spec_of_search ts)
    ~ranges:ts.Options.search_ranges
    ~mem_limit_words:ts.Options.search_mem_limit_words
    ~threads:ts.Options.search_threads
    ~sync_cost:ts.Options.search_sync_cost
    ~transfer_cost:ts.Options.search_transfer_cost ()

let compile ?(cache = Cache.off) { source; options = o } =
  let timings = ref [] in
  let hits = ref 0 and misses = ref 0 in
  let record (t : Stage.timing) =
    timings := t :: !timings;
    if t.Stage.cacheable then
      if t.Stage.cached then incr hits else incr misses
  in
  let name = Source.name source in
  match Stage.exec ~record (Stage.v "parse" Frontend.load) source with
  | Error e -> Error e
  | Ok (prog, digest) ->
    let cached_exec ~stage ~extra f x =
      let key = Cache.key ~digest ~stage ~extra in
      Stage.exec ~cache:(cache, key) ~record (Stage.v stage f) x
    in
    let finish acc =
      Ok
        { acc with
          timings = List.rev !timings;
          cache_hits = !hits;
          cache_misses = !misses }
    in
    let base =
      { source_name = name; digest; options = o; prog; deps = None;
        band = None; searched = None; tiled = None; plan = None;
        movement = []; timings = []; cache_hits = 0; cache_misses = 0 }
    in
    (try
       if o.Options.stop = Options.Front_end then finish base
       else begin
         let deps = cached_exec ~stage:"deps" ~extra:"" Deps.analyze prog in
         let acc = { base with deps = Some deps } in
         if o.Options.stop = Options.Dependences then finish acc
         else begin
           let band =
             if o.Options.find_band then
               cached_exec ~stage:"hyperplanes" ~extra:""
                 (fun (p, d) ->
                   (* mixed statement depths admit no common band *)
                   match Hyperplanes.find_band p d with
                   | b -> Some b
                   | exception Invalid_argument _ -> None)
                 (prog, deps)
             else None
           in
           let acc = { acc with band } in
           if o.Options.stop = Options.Band then finish acc
           else begin
             let tiling_fp = Options.tiling_fingerprint o in
             let searched, spec =
               match o.Options.tiling with
               | Options.No_tiling -> (None, None)
               | Options.Spec s -> (None, Some s)
               | Options.Search ts ->
                 let cand =
                   cached_exec ~stage:"tilesearch" ~extra:tiling_fp
                     (fun p ->
                       Tilesearch.search
                         ~max_evals:ts.Options.search_max_evals
                         ~snap_pow2:ts.Options.search_snap_pow2
                         (search_problem p ts))
                     prog
                 in
                 (match cand with
                  | Some c -> (Some c, Some (spec_of_search ts c.Tilesearch.t))
                  | None -> (None, None))
             in
             let pre =
               match spec with
               | None -> None
               | Some spec ->
                 let tp, ctx =
                   cached_exec ~stage:"tile" ~extra:tiling_fp
                     (fun (p, s) ->
                       (Tile.tile_program p s, Tile.origin_context p s))
                     (prog, spec)
                 in
                 Some (spec, tp, ctx)
             in
             let plan =
               let plan_input, ctx =
                 match pre with
                 | Some (_, tp, ctx) -> (tp, Some ctx)
                 | None -> (prog, None)
               in
               (* the delta is keyed on the innermost block origin of
                  the tile spec; an untiled compile has no chains *)
               let inter_tile =
                 match pre with
                 | Some (spec, _, _) when o.Options.inter_tile_reuse ->
                   Tile.inter_tile_origin prog spec
                 | _ -> None
               in
               cached_exec ~stage:"plan"
                 ~extra:(Options.plan_fingerprint o)
                 (fun (p, ctx) ->
                   Plan.plan_block ~arch:o.Options.arch
                     ~merge_per_array:o.Options.merge_per_array
                     ~delta:o.Options.delta
                     ~optimize_movement:o.Options.optimize_movement
                     ?param_context:ctx ?inter_tile p)
                 (plan_input, ctx)
             in
             let movement =
               if o.Options.stage_data then
                 List.map
                   (fun (b : Plan.buffered) ->
                     (b.Plan.move_in, b.Plan.move_out))
                   plan.Plan.buffered
               else []
             in
             let tiled =
               match pre with
               | None -> None
               | Some (spec, tp, ctx) ->
                 let ast =
                   Stage.exec ~record
                     (Stage.v "codegen" (fun () ->
                        Tile.generate prog spec ~movement))
                     ()
                 in
                 Some { spec; tiled_prog = tp; context = ctx; ast }
             in
             finish { acc with searched; tiled; plan = Some plan; movement }
           end
         end
       end
     with
     | Failure m ->
       Error { Frontend.origin = name; stage = "pipeline"; message = m }
     | Invalid_argument m ->
       Error { Frontend.origin = name; stage = "pipeline"; message = m })

let compile_source ?cache ?options source = compile ?cache (job ?options source)

let default_jobs () =
  try Domain.recommended_domain_count () with _ -> 4

(* Batch compilation via forked workers.  Jobs are dealt round-robin
   to [workers] children; each child streams back one (index, result)
   message per job over a pipe — converting any exception its job
   raised into that job's [Error] — and the parent reassembles them by
   index, so the output order is the input order no matter how workers
   interleave.  Because results stream incrementally, a worker that
   dies mid-batch (OOM kill, segfault, crashing [compile_one] hook)
   loses only the jobs it had not yet reported; each of those comes
   back as its own [Error] naming the job, never a collapsed
   whole-batch failure.  Fork (rather than domains) keeps each job's
   compile single-threaded and the workers' address spaces isolated.

   [compile_one] (default {!compile}) exists for tests: injecting a
   raising or aborting function exercises the per-job error and
   dead-worker paths without needing a genuinely crashing input. *)
let compile_many ?(cache = Cache.off) ?jobs
    ?(compile_one = fun ~cache jb -> compile ~cache jb) job_list =
  let items = Array.of_list job_list in
  let n = Array.length items in
  let workers =
    let j = match jobs with Some j -> j | None -> default_jobs () in
    max 1 (min j n)
  in
  let guarded i =
    try compile_one ~cache items.(i)
    with e ->
      Error
        { Frontend.origin = Source.name items.(i).source;
          stage = "batch";
          message = Printexc.to_string e }
  in
  if workers <= 1 || n <= 1 || Sys.win32 then
    List.init n guarded
  else begin
    let spans = Array.make workers [] in
    for i = n - 1 downto 0 do
      spans.(i mod workers) <- i :: spans.(i mod workers)
    done;
    let slots = Array.make n None in
    let children =
      Array.to_list spans
      |> List.filter (fun idxs -> idxs <> [])
      |> List.filter_map (fun idxs ->
           let r, w = Unix.pipe () in
           match Unix.fork () with
           | exception Failure _ ->
             (* OCaml refuses to fork while another domain runs (say,
                the runtime's lingering lanes): this worker's share
                compiles in-process *)
             Unix.close r;
             Unix.close w;
             List.iter (fun i -> slots.(i) <- Some (guarded i)) idxs;
             None
           | 0 ->
             (* child: compute, marshal each result as soon as it
                exists, vanish without running the parent's at_exit
                flushes *)
             (try
                Unix.close r;
                let oc = Unix.out_channel_of_descr w in
                List.iter
                  (fun i ->
                    Marshal.to_channel oc (i, guarded i) [];
                    flush oc)
                  idxs;
                Unix._exit 0
              with _ -> Unix._exit 1)
           | pid ->
             Unix.close w;
             Some (pid, r, idxs))
    in
    List.iter
      (fun (pid, r, idxs) ->
        let ic = Unix.in_channel_of_descr r in
        (try
           while true do
             let (i, res) : int * (compiled, Frontend.error) result =
               Marshal.from_channel ic
             in
             slots.(i) <- Some res
           done
         with End_of_file | Failure _ -> ());
        close_in_noerr ic;
        let rec wait () =
          try snd (Unix.waitpid [] pid)
          with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        let status = wait () in
        let status_message =
          match status with
          | Unix.WEXITED 0 -> "worker exited before reporting this job"
          | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "worker killed by signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "worker stopped by signal %d" s
        in
        List.iter
          (fun i ->
            if Option.is_none slots.(i) then
              slots.(i) <-
                Some
                  (Error
                     { Frontend.origin = Source.name items.(i).source;
                       stage = "batch";
                       message = status_message }))
          idxs)
      children;
    Array.to_list (Array.map (fun s -> Option.get s) slots)
  end

let report_json c =
  Json.Obj
    [ ("source", Json.Str c.source_name);
      ("digest", Json.Str c.digest);
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int c.cache_hits);
            ("misses", Json.Int c.cache_misses) ] );
      ("stages", Json.List (List.map Stage.timing_json c.timings)) ]
