(* Benchmark harness: regenerates every figure of the paper's
   evaluation (Section 6) on the simulated GeForce 8800 GTX + Core2 Duo
   testbed, plus Bechamel micro-benchmarks of the compiler passes.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig4    -- one artifact
     dune exec bench/main.exe -- micro   -- compiler-pass microbenches
     dune exec bench/main.exe -- batch   -- kernel-suite batch compile

   Every compilation goes through the Emsc_driver pipeline with a
   shared in-memory pass cache, so a tile configuration planned for
   one figure is not re-planned for the next.

   Absolute milliseconds come from a first-order machine model (see
   DESIGN.md); the claims under test are the *shapes*: who wins, by
   what rough factor, and where the optima/crossovers sit. *)

open Emsc_arith
open Emsc_ir
open Emsc_core
open Emsc_transform
open Emsc_machine
open Emsc_kernels
open Emsc_driver

let gpu_hier = Emsc_machine.Hierarchy.gtx8800
let gpu_word_bytes = (Hierarchy.staging gpu_hier).Hierarchy.l_word_bytes
let cpu_hier = Emsc_machine.Hierarchy.core2duo_cache_as_scratchpad

(* CPU-baseline ms for a run: cache-simulate the hierarchy's cache
   levels and charge per-level hits through the timing model *)
let cpu_baseline_ms run =
  let module Sim = Emsc_machine.Cache.Sim in
  let sim = Sim.create cpu_hier in
  let on_global _ addr _ = ignore (Sim.access sim addr) in
  let (c : Exec.counters) = run ~on_global in
  Timing.cache_total_ms cpu_hier ~flops:c.Exec.flops
    ~hits:(Sim.hits sim)
    ~home_accesses:(Sim.home_accesses sim)

let pf = Printf.printf

let human n =
  if n >= 1 lsl 30 then Printf.sprintf "%dG" (n lsr 30)
  else if n >= 1 lsl 20 then Printf.sprintf "%dM" (n lsr 20)
  else if n >= 1 lsl 10 then Printf.sprintf "%dk" (n lsr 10)
  else string_of_int n

(* one pass cache for the whole harness: figures that revisit a
   (kernel, tile) configuration reuse its dependences and plan *)
let bench_cache = Emsc_driver.Cache.in_memory ()

let compiled job =
  match Pipeline.compile ~cache:bench_cache job with
  | Ok c -> c
  | Error e -> failwith ("bench: " ^ Frontend.error_message e)

let compile_text ?(options = Options.default) name text =
  compiled (Pipeline.job ~options (Source.Text { name; text }))

let plan_of c =
  match c.Pipeline.plan with
  | Some plan -> plan
  | None -> failwith "bench: compilation carries no plan"

(* ------------------------------------------------------------------ *)
(* Machine-readable run metrics: every figure records its data points  *)
(* here and the harness writes a BENCH_<timestamp>.json artifact, so   *)
(* successive PRs have a perf trajectory to regress against.           *)
(* ------------------------------------------------------------------ *)

module J = Emsc_obs.Json

let bench_points : J.t list ref = ref []
let bench_notes : J.t list ref = ref []

(* runtime figure: flat "<kernel>.<series>" -> wall ms; becomes the
   artifact's top-level [runtime_wall_ms] key (what bench-compare's
   runtime section gates) *)
let runtime_wall : (string * float) list ref = ref []

(* per-kernel runtime report from one extra double-buffered run with
   its timeline recorded (untimed, so instrumentation never pollutes
   runtime_wall_ms), each with its nested overlap audit; becomes the
   artifact's top-level [runtime_report] object — what bench-compare's
   overlap-fail gate reads *)
let runtime_reports : (string * J.t) list ref = ref []

let record_point ~fig ~series ~x ?(unit_ = "ms") v =
  bench_points :=
    J.Obj
      [ ("figure", J.Str fig); ("series", J.Str series); ("x", J.Str x);
        ("value", J.Float v); ("unit", J.Str unit_) ]
    :: !bench_points

let record_note ~fig name v =
  bench_notes :=
    J.Obj [ ("figure", J.Str fig); ("name", J.Str name); ("value", v) ]
    :: !bench_notes

(* per-kernel counter totals, accumulated over every simulated run *)
let kernel_counters : (string, Exec.counters) Hashtbl.t = Hashtbl.create 8

let note_counters kernel (c : Exec.counters) =
  let acc =
    match Hashtbl.find_opt kernel_counters kernel with
    | Some a -> a
    | None ->
      let a = Exec.fresh () in
      Hashtbl.replace kernel_counters kernel a;
      a
  in
  acc.Exec.flops <- acc.Exec.flops +. c.Exec.flops;
  acc.Exec.g_ld <- acc.Exec.g_ld +. c.Exec.g_ld;
  acc.Exec.g_st <- acc.Exec.g_st +. c.Exec.g_st;
  acc.Exec.s_ld <- acc.Exec.s_ld +. c.Exec.s_ld;
  acc.Exec.s_st <- acc.Exec.s_st +. c.Exec.s_st;
  acc.Exec.syncs <- acc.Exec.syncs +. c.Exec.syncs;
  acc.Exec.fences <- acc.Exec.fences +. c.Exec.fences

(* cost-model audit rows (one per suite kernel), in suite order *)
let audit_results : J.t list ref = ref []

(* hierarchy figure: "<kernel>.<machine>.<edge>" -> measured words
   moved across that transfer edge; becomes the artifact's top-level
   [level_movement] key (what bench-compare's level_words section
   gates) *)
let level_movement : (string * float) list ref = ref []

(* inter-tile figure: "<kernel>.<full|delta>" (and per-buffer
   breakdowns) -> measured movement words; becomes the artifact's
   top-level [transfer_volume] key (what bench-compare's
   transfer_words section gates) *)
let transfer_volume : (string * float) list ref = ref []

(* serve figure: latency quantiles, throughput and cache hit rates of
   the compile daemon under concurrent load; becomes the artifact's
   top-level [serve] object — bench-compare gates its lower-is-better
   keys (latency quantiles, hot miss rate) with the runtime
   tolerance *)
let serve_summary : (string * J.t) list ref = ref []

let write_bench_json ~figure_ms =
  let t = Unix.localtime (Unix.time ()) in
  let stamp fmt =
    Printf.sprintf fmt (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
      t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec
  in
  let path = stamp "BENCH_%04d%02d%02d_%02d%02d%02d.json" in
  let kernels =
    Hashtbl.fold (fun k c acc -> (k, Exec.counters_json c) :: acc)
      kernel_counters []
    |> List.sort compare
  in
  (* the serve figure's compiles all run under a worker probe
     [serve.<op>], and how many run depends on how concurrent requests
     race on the shared cache: keep those stacks out of the profile,
     whose solver work bench-compare gates exactly *)
  let prof =
    List.filter
      (fun (f : Emsc_obs.Prof.frame) ->
        match f.f_stack with
        | root :: _ -> not (String.starts_with ~prefix:"serve." root)
        | [] -> true)
      (Emsc_obs.Prof.snapshot ())
  in
  let j =
    J.Obj
      [ ("schema", J.Str "emsc-bench/1");
        ("timestamp", J.Str (stamp "%04d-%02d-%02dT%02d:%02d:%02d"));
        ("figures", J.List (List.rev !bench_points));
        ("notes", J.List (List.rev !bench_notes));
        ("kernel_counters", J.Obj kernels);
        ( "figure_wall_ms",
          J.Obj (List.map (fun (n, ms) -> (n, J.Float ms)) figure_ms) );
        ( "runtime_wall_ms",
          J.Obj
            (List.rev_map (fun (k, ms) -> (k, J.Float ms)) !runtime_wall) );
        ("runtime_report", J.Obj (List.rev !runtime_reports));
        ("audit", J.List (List.rev !audit_results));
        ( "level_movement",
          J.Obj
            (List.rev_map (fun (k, w) -> (k, J.Float w)) !level_movement) );
        ( "transfer_volume",
          J.Obj
            (List.rev_map (fun (k, w) -> (k, J.Float w)) !transfer_volume) );
        ("serve", J.Obj !serve_summary);
        ("metrics", Emsc_obs.Metrics.snapshot_json (Emsc_obs.Metrics.snapshot ()));
        ( "pass_cache",
          Emsc_driver.Cache.stats_json bench_cache );
        ("pass_timings", Emsc_obs.Prof.pass_timings_json prof);
        (* per-pass self times with caller stacks; bench-compare uses
           this to attribute a wall regression to the offending pass *)
        ("compile_profile", Emsc_obs.Prof.json prof) ]
  in
  Emsc_obs.Io.write_file path (J.to_string ~pretty:true j ^ "\n");
  pf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Mpeg4 motion estimation                                            *)
(* ------------------------------------------------------------------ *)

let ws = 16
let me_threads = 256

type me_run = {
  me_ms : float;
  me_fp_bytes : int;
}

let run_me ~ni ~nj ~tiles ~smem =
  let c = compiled (Me.job ~ni ~nj ~ws ~tiles ~stage_data:smem ()) in
  let _, result = Runner.simulate c in
  note_counters "me" result.Exec.totals;
  let fp_words =
    if smem then
      Zint.to_int_exn (Plan.total_footprint (plan_of c) Runner.zero_env)
    else 0
  in
  let fp_bytes =
    Hierarchy.effective_words ~double_buffer:false fp_words * gpu_word_bytes
  in
  let params =
    { Timing.threads = me_threads;
      smem_bytes_per_block = fp_bytes;
      (* staged copies are aligned and fully coalesced; the sliding
         window accesses of the unstaged version mostly are not
         (G80 alignment rules) *)
      coalesce_eff = (if smem then 16.0 else 4.0);
      global_sync = false; double_buffer = false }
  in
  { me_ms = Timing.total_ms gpu_hier params result;
    me_fp_bytes = fp_bytes }

(* CPU baseline: full interpretation with cache simulation at a small
   frame, extrapolated linearly in the operation count (the kernel
   streams, so per-op cache behaviour is size-independent). *)
let me_cpu_ms_per_op =
  lazy
    begin
      let ni = 96 and nj = 96 in
      let p = Me.program ~ni ~nj ~ws in
      let spec = Array.make 4 Tile.no_tiling in
      let ast = Tile.generate p spec ~movement:[] in
      let ms =
        cpu_baseline_ms (fun ~on_global ->
          let _, r = Runner.execute ~prog:p ~mode:Exec.Full ~on_global ast in
          r.Exec.totals)
      in
      ms /. float_of_int (ni * nj * ws * ws)
    end

let me_cpu_ms ~ni ~nj =
  Lazy.force me_cpu_ms_per_op *. float_of_int ni *. float_of_int nj
  *. float_of_int (ws * ws)

let me_sizes =
  (* labelled as in the paper; square frames *)
  [ ("256k", 512); ("1M", 1024); ("2M", 1448); ("4M", 2048); ("9M", 3072);
    ("16M", 4096); ("64M", 8192) ]

let best_me_tiles = (32, 16, 16, 16)

let fig4 () =
  pf "=== Figure 4: Mpeg4 ME execution time (ms) vs problem size ===\n";
  pf "%-8s %14s %14s %14s %10s %9s\n" "size" "GPU-noSmem" "GPU-smem" "CPU"
    "no/smem" "cpu/smem";
  List.iter (fun (label, n) ->
    let dram = run_me ~ni:n ~nj:n ~tiles:best_me_tiles ~smem:false in
    let sm = run_me ~ni:n ~nj:n ~tiles:best_me_tiles ~smem:true in
    let c = me_cpu_ms ~ni:n ~nj:n in
    record_point ~fig:"fig4" ~series:"gpu-dram" ~x:label dram.me_ms;
    record_point ~fig:"fig4" ~series:"gpu-smem" ~x:label sm.me_ms;
    record_point ~fig:"fig4" ~series:"cpu" ~x:label c;
    pf "%-8s %14.1f %14.1f %14.1f %9.1fx %8.0fx\n" label dram.me_ms sm.me_ms c
      (dram.me_ms /. sm.me_ms) (c /. sm.me_ms))
    me_sizes;
  pf "(paper: scratchpad ~8x over DRAM-only; >100x over CPU)\n\n"

let me_tile_candidates =
  [ (8, 8, 16, 16); (16, 8, 16, 16); (16, 16, 16, 16); (32, 16, 16, 16);
    (32, 32, 16, 16); (64, 16, 16, 16) ]

let fig6 () =
  pf "=== Figure 6: Mpeg4 ME time (ms) for varying memory-tile sizes ===\n";
  let sizes = List.filter (fun (_, n) -> n >= 2048) me_sizes in
  pf "%-14s" "tile";
  List.iter (fun (label, _) -> pf " %10s" label) sizes;
  pf " %11s\n" "smem/block";
  List.iter (fun (ti, tj, tk, tl) ->
    pf "%2d,%2d,%2d,%2d    " ti tj tk tl;
    let tile_s = Printf.sprintf "%d,%d,%d,%d" ti tj tk tl in
    let fp = ref 0 in
    List.iter (fun (label, n) ->
      let r = run_me ~ni:n ~nj:n ~tiles:(ti, tj, tk, tl) ~smem:true in
      fp := r.me_fp_bytes;
      record_point ~fig:"fig6" ~series:tile_s ~x:label r.me_ms;
      pf " %10.1f" r.me_ms)
      sizes;
    pf " %10dB%s\n" !fp
      (if !fp > Hierarchy.staging_capacity_words gpu_hier * gpu_word_bytes then "  <- exceeds 16KB" else ""))
    me_tile_candidates;
  (* and what does the Section 4.3 search pick?  Run it as the
     pipeline's tilesearch stage. *)
  let ni = 2048 and nj = 2048 in
  let search =
    { Options.search_block =
        [| Some ((ni + 7) / 8); Some ((nj + 3) / 4); None; None |];
      search_ranges = [| (8, 64); (8, 64); (16, 16); (16, 16) |];
      search_mem_limit_words =
        Emsc_machine.Hierarchy.staging_capacity_words gpu_hier;
      search_threads = float_of_int me_threads;
      search_sync_cost = 40.0;
      search_transfer_cost = 4.0;
      search_max_evals = 60;
      search_snap_pow2 = true }
  in
  let c =
    compiled
      (Pipeline.job
         ~options:
           { Options.default with
             arch = `Gpu; find_band = false;
             tiling = Options.Search search }
         (Source.Program
            { name = Printf.sprintf "me-%dx%d-search" ni nj;
              prog = Me.program ~ni ~nj ~ws }))
  in
  (match c.Pipeline.searched with
   | Some cand ->
     let tiles =
       String.concat ","
         (Array.to_list (Array.map string_of_int cand.Tilesearch.t))
     in
     record_note ~fig:"fig6" "search_pick"
       (J.Obj
          [ ("tiles", J.Str tiles);
            ("footprint_words", J.Int cand.Tilesearch.footprint) ]);
     pf "tile-size search picks (%s), footprint %d words\n" tiles
       cand.Tilesearch.footprint
   | None ->
     record_note ~fig:"fig6" "search_pick" J.Null;
     pf "tile-size search found nothing feasible\n");
  pf "(paper: 32,16,16,16 optimal and found by the search)\n\n"

(* ------------------------------------------------------------------ *)
(* 1-D Jacobi                                                          *)
(* ------------------------------------------------------------------ *)

let jac_steps = 4096
let jac_threads = 64

let run_jacobi ~n ~ts ~tt =
  let p = Jacobi1d.program ~n ~steps:jac_steps in
  let k = Stencil.overlapped_1d ~n ~steps:jac_steps ~ts ~tt p in
  let _, result =
    Runner.execute ~prog:p ~local_ref:k.Stencil.local_ref
      ~locals:k.Stencil.locals ~memory:Runner.Phantom k.Stencil.ast
  in
  note_counters "jacobi1d" result.Exec.totals;
  let params =
    { Timing.threads = jac_threads;
      smem_bytes_per_block =
        Hierarchy.effective_words ~double_buffer:false k.Stencil.smem_words
        * gpu_word_bytes;
      coalesce_eff = 16.0;
      global_sync = true; double_buffer = false }
  in
  Timing.total_ms gpu_hier params result

let run_jacobi_dram ~n ~ts =
  let p = Jacobi1d.program ~n ~steps:jac_steps in
  let k = Stencil.dram_1d ~n ~steps:jac_steps ~ts p in
  let _, result =
    Runner.execute ~prog:p ~memory:Runner.Phantom k.Stencil.ast
  in
  note_counters "jacobi1d" result.Exec.totals;
  let params =
    { Timing.threads = jac_threads; smem_bytes_per_block = 0;
      coalesce_eff = 3.5; global_sync = true; double_buffer = false }
  in
  Timing.total_ms gpu_hier params result

let jac_cpu_ms_per_cell =
  lazy
    begin
      let n = 8192 and steps = 32 in
      let p = Jacobi1d.program ~n ~steps in
      let ms =
        cpu_baseline_ms (fun ~on_global ->
          let _, c = Runner.reference ~on_global p in
          c)
      in
      ms /. (float_of_int n *. float_of_int steps)
    end

let jac_cpu_ms ~n =
  Lazy.force jac_cpu_ms_per_cell *. float_of_int n *. float_of_int jac_steps

let fig5_sizes = [ 8192; 16384; 32768; 65536; 131072; 262144; 524288 ]

let fig5 () =
  pf "=== Figure 5: 1-D Jacobi execution time (ms) vs problem size ===\n";
  pf "%-8s %14s %14s %14s %10s %9s\n" "size" "GPU-noSmem" "GPU-smem" "CPU"
    "no/smem" "cpu/smem";
  List.iter (fun n ->
    let ts = 256 in
    let sm = run_jacobi ~n ~ts ~tt:32 in
    let dram = run_jacobi_dram ~n ~ts in
    let c = jac_cpu_ms ~n in
    record_point ~fig:"fig5" ~series:"gpu-dram" ~x:(human n) dram;
    record_point ~fig:"fig5" ~series:"gpu-smem" ~x:(human n) sm;
    record_point ~fig:"fig5" ~series:"cpu" ~x:(human n) c;
    pf "%-8s %14.1f %14.1f %14.1f %9.1fx %8.1fx\n" (human n) dram sm c
      (dram /. sm) (c /. sm))
    fig5_sizes;
  pf "(paper: scratchpad ~10x over DRAM-only; ~15x over CPU)\n\n"

let fig7 () =
  pf "=== Figure 7: 1-D Jacobi time (ms) vs number of thread blocks ===\n";
  let block_counts = [ 32; 64; 96; 128; 160; 192; 224; 256 ] in
  pf "%-8s" "blocks";
  List.iter (fun n -> pf " %12s" ("N=" ^ human n)) [ 8192; 16384; 32768 ];
  pf "\n";
  List.iter (fun b ->
    pf "%-8d" b;
    List.iter (fun n ->
      let ts = max 4 ((n - 2 + b - 1) / b) in
      let ms = run_jacobi ~n ~ts ~tt:32 in
      record_point ~fig:"fig7" ~series:("N=" ^ human n) ~x:(string_of_int b)
        ms;
      pf " %12.2f" ms)
      [ 8192; 16384; 32768 ];
    pf "\n")
    block_counts;
  pf "(paper: U-shaped curves; synchronization dominates at high block counts)\n\n"

let jac_tile_candidates =
  [ (32, 64); (32, 128); (16, 256); (32, 256); (64, 256) ]

let fig8 () =
  pf "=== Figure 8: 1-D Jacobi time (ms) for varying (time,space) tiles ===\n";
  let sizes = [ 65536; 131072; 262144; 524288 ] in
  pf "%-10s" "tt,ts";
  List.iter (fun n -> pf " %12s" (human n)) sizes;
  pf "\n";
  List.iter (fun (tt, ts) ->
    pf "%3d,%-5d " tt ts;
    List.iter (fun n ->
      let ms = run_jacobi ~n ~ts ~tt in
      record_point ~fig:"fig8"
        ~series:(Printf.sprintf "%d,%d" tt ts) ~x:(human n) ms;
      pf " %12.1f" ms)
      sizes;
    pf "\n")
    jac_tile_candidates;
  (* the Section 4.3 search over (tt, ts), scratchpad limited as in the
     paper's experiment (2^9 words per buffer -> 2^10 words here since
     the ping-pong keeps two buffers; see EXPERIMENTS.md).  This one
     cannot go through the pipeline's tilesearch stage: its objective
     is simulated execution time of the overlapped stencil kernel, not
     the movement-cost model. *)
  let limit_words = 1024 in
  let problem =
    { Tilesearch.ranges = [| (8, 128); (32, 512) |];
      mem_limit_words = limit_words;
      threads = float_of_int jac_threads;
      sync_cost = 2.0;
      transfer_cost = 8.0;
      evaluate =
        (fun t ->
          let tt = t.(0) and ts = t.(1) in
          if tt <= 0 || ts <= 0 then None
          else Some (run_jacobi ~n:131072 ~ts ~tt, 2 * (ts + (2 * tt)))) }
  in
  (match Tilesearch.search ~max_evals:80 ~snap_pow2:true problem with
   | Some c ->
     record_note ~fig:"fig8" "search_pick"
       (J.Obj
          [ ("tt", J.Int c.Tilesearch.t.(0));
            ("ts", J.Int c.Tilesearch.t.(1));
            ("footprint_words", J.Int c.Tilesearch.footprint) ]);
     pf "tile-size search picks tt=%d, ts=%d (footprint %d words)\n"
       c.Tilesearch.t.(0) c.Tilesearch.t.(1) c.Tilesearch.footprint
   | None ->
     record_note ~fig:"fig8" "search_pick" J.Null;
     pf "tile-size search found nothing feasible\n");
  pf "(paper: space tile 256, time tile 32 optimal and found by the search)\n\n"

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out                       *)
(* ------------------------------------------------------------------ *)

let ablations () =
  pf "=== Ablations ===\n";
  (* 1. Section 3.1.4 movement optimizer: producer-consumer block *)
  let src =
    {|
    array A[64];
    array C[64];
    for (i = 0; i <= 63; i++) { A[i] = i * 2; }
    for (i = 0; i <= 63; i++) { C[i] = A[i] + 1; }
    |}
  in
  let copies plan =
    List.fold_left (fun acc (b : Plan.buffered) ->
      let count stms =
        let n = ref 0 in
        let rec walk s =
          match s with
          | Emsc_codegen.Ast.Loop l -> List.iter walk l.Emsc_codegen.Ast.body
          | Emsc_codegen.Ast.Guard (_, body) -> List.iter walk body
          | Emsc_codegen.Ast.Copy _ -> incr n
          | _ -> ()
        in
        List.iter walk stms;
        !n
      in
      acc + count b.Plan.move_in)
      0 plan.Plan.buffered
  in
  let cell_opts = { Options.default with arch = `Cell; find_band = false } in
  let c_naive = compile_text ~options:cell_opts "producer-consumer" src in
  let c_opt =
    compile_text
      ~options:{ cell_opts with optimize_movement = true }
      "producer-consumer" src
  in
  let naive = plan_of c_naive and opt = plan_of c_opt in
  record_note ~fig:"ablations" "move_in_nests"
    (J.Obj [ ("naive", J.Int (copies naive)); ("optimized", J.Int (copies opt)) ]);
  pf "3.1.4 movement optimizer: move-in loop nests %d -> %d\n"
    (copies naive) (copies opt);
  (* the A partition needs nothing moved in when the producer is in
     the block; verify via the data sets *)
  let p = c_naive.Pipeline.prog in
  let deps = Option.get c_naive.Pipeline.deps in
  let part_a = List.hd (Dataspaces.partition_array p "A") in
  let buf = Alloc.build p part_a in
  let needed = Movement.optimized_move_in_data p deps buf in
  pf "  elements of A needing copy-in: %s (naive: 64)\n"
    (match Emsc_poly.Count.count_uset needed with
     | Emsc_poly.Count.Exact n -> Zint.to_string n
     | _ -> "?");

  (* 2. Section 4.2 hoisting: occurrences with and without *)
  let mm = Matmul.program ~n:64 in
  let spec =
    [| { Tile.block = Some 16; mem = None; thread = None };
       { Tile.block = Some 16; mem = None; thread = None };
       { Tile.block = None; mem = Some 8; thread = None } |]
  in
  let c_mm =
    compiled
      (Pipeline.job
         ~options:
           { Options.default with
             arch = `Cell; find_band = false; tiling = Options.Spec spec }
         (Source.Program { name = "matmul-n64-hoist"; prog = mm }))
  in
  let plan = plan_of c_mm in
  let naive_occ = 8.0 (* innermost placement: once per kM sub-tile *) in
  List.iter (fun (bf : Plan.buffered) ->
    let occ =
      Tile.movement_profile mm spec (bf.Plan.move_in, bf.Plan.move_out)
    in
    pf "4.2 hoisting, buffer %s: %.0f movement occurrences per block         (unhoisted: %.0f)\n"
      bf.Plan.buffer.Alloc.local_name occ naive_occ)
    plan.Plan.buffered;

  (* 3. double-buffered staging (overlap movement with compute) *)
  let run_me_db ~double =
    let ni = 2048 and nj = 2048 in
    let c = compiled (Me.job ~ni ~nj ~ws ~tiles:(32, 16, 16, 16) ()) in
    let plan = plan_of c in
    let _, r = Runner.simulate c in
    let fp =
      match
        Timing.plan_smem_bytes ~double_buffer:double
          ~word_bytes:gpu_word_bytes plan Runner.zero_env
      with
      | Some b -> b
      | None -> failwith "bench: symbolic footprint"
    in
    Timing.total_ms gpu_hier
      { Timing.threads = me_threads;
        smem_bytes_per_block = fp;
        coalesce_eff = 16.0; global_sync = false; double_buffer = double }
      r
  in
  let t_single = run_me_db ~double:false in
  let t_double = run_me_db ~double:true in
  record_note ~fig:"ablations" "double_buffer_ms"
    (J.Obj [ ("single", J.Float t_single); ("double", J.Float t_double) ]);
  pf "double buffering (ME, 4M): %.1f ms -> %.1f ms (%.1f%%), at 2x       scratchpad\n"
    t_single t_double
    ((t_single -. t_double) /. t_single *. 100.0);

  (* 4. Algorithm 1 threshold sweep on a constant-reuse block *)
  let src2 =
    {|
    array X[64][64];
    array Y[64][64];
    for (i = 0; i <= 62; i++) {
      for (j = 0; j <= 62; j++) {
        Y[i][j] = X[i][j] + X[i+1][j+1];
      }
    }
    |}
  in
  let c2 =
    compile_text
      ~options:{ Options.default with stop = Options.Front_end }
      "constant-reuse" src2
  in
  let p2 = c2.Pipeline.prog in
  let part = List.hd (Dataspaces.partition_array p2 "X") in
  List.iter (fun delta ->
    let r = Reuse.analyze ~delta p2 part in
    record_note ~fig:"ablations" (Printf.sprintf "delta_%.2f" delta)
      (J.Obj
         [ ( "overlap",
             match r.Reuse.overlap_fraction with
             | Some f -> J.Float f
             | None -> J.Null );
           ("beneficial", J.Bool r.Reuse.beneficial) ]);
    pf "Algorithm 1, delta=%.2f: overlap=%s -> %s\n" delta
      (match r.Reuse.overlap_fraction with
       | Some f -> Printf.sprintf "%.2f" f
       | None -> "n/a")
      (if r.Reuse.beneficial then "copy to scratchpad" else "leave in DRAM"))
    [ 0.1; 0.3; 0.5; 0.9; 0.99 ];
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Batch compilation of the kernel suite                               *)
(* ------------------------------------------------------------------ *)

let batch () =
  pf "=== Kernel-suite batch compilation (driver) ===\n";
  let jobs = Suite.jobs () in
  let n = List.length jobs in
  let check label results =
    List.iter
      (function
        | Ok _ -> ()
        | Error e ->
          failwith
            (Printf.sprintf "bench: batch(%s): %s" label
               (Frontend.error_message e)))
      results
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let seq, t_seq =
    time (fun () ->
      Pipeline.compile_many ~cache:Emsc_driver.Cache.off ~jobs:1 jobs)
  in
  check "sequential" seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-bench-cache-%d" (Unix.getpid ()))
  in
  let cache = Emsc_driver.Cache.create ~dir () in
  let par, t_par =
    time (fun () -> Pipeline.compile_many ~cache ~jobs:4 jobs)
  in
  check "parallel" par;
  let warm, t_warm =
    time (fun () -> Pipeline.compile_many ~cache ~jobs:4 jobs)
  in
  check "warm-cache" warm;
  record_point ~fig:"batch" ~series:"sequential" ~x:(string_of_int n) t_seq;
  record_point ~fig:"batch" ~series:"parallel-4" ~x:(string_of_int n) t_par;
  record_point ~fig:"batch" ~series:"warm-cache" ~x:(string_of_int n) t_warm;
  record_note ~fig:"batch" "kernels"
    (J.List (List.map (fun s -> J.Str s) (Suite.names ())));
  (* the speedup of the 4-worker run is bounded by the host's cores *)
  record_note ~fig:"batch" "host_jobs" (J.Int (Pipeline.default_jobs ()));
  pf "%d kernels: sequential %.1f ms, 4 workers %.1f ms (%.1fx, %d core(s)), warm cache %.1f ms\n\n"
    n t_seq t_par (t_seq /. t_par) (Pipeline.default_jobs ()) t_warm

(* ------------------------------------------------------------------ *)
(* Differential-testing health: a small fixed-seed fuzz run            *)
(* ------------------------------------------------------------------ *)

let check () =
  pf "=== Differential testing (emsc check, fuzz=10 seed=1) ===\n";
  let t0 = Unix.gettimeofday () in
  let r = Emsc_check.Fuzz.run ~fuzz:10 ~seed:1 () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  record_point ~fig:"check" ~series:"wall" ~x:"fuzz-10" ms;
  record_point ~fig:"check" ~series:"checks" ~x:"fuzz-10" ~unit_:"count"
    (float_of_int r.Emsc_check.Fuzz.checks);
  record_note ~fig:"check" "failures"
    (J.Int (List.length r.Emsc_check.Fuzz.failures));
  pf "%d generated, %d suite kernel(s), %d check(s), %d failure(s), %.1f ms\n\n"
    r.Emsc_check.Fuzz.generated r.Emsc_check.Fuzz.suite
    r.Emsc_check.Fuzz.checks
    (List.length r.Emsc_check.Fuzz.failures)
    ms;
  if r.Emsc_check.Fuzz.failures <> [] then
    failwith "bench: check artifact found failures"

(* ------------------------------------------------------------------ *)
(* Cost-model audit: predicted vs measured over the kernel suite       *)
(* ------------------------------------------------------------------ *)

let audit () =
  pf "=== Cost-model audit (emsc audit --suite) ===\n";
  let module A = Emsc_audit.Audit in
  let failures = ref 0 in
  List.iter (fun (job : Pipeline.job) ->
    let name = Source.name job.Pipeline.source in
    let o = A.audit_job ~cache:bench_cache job in
    audit_results := A.outcome_json ~name o :: !audit_results;
    (match o with
     | A.Audited t ->
       if t.A.a_verdict = A.Fail then incr failures;
       pf "%-24s %-4s  worst %s\n" name
         (A.verdict_string t.A.a_verdict)
         (match t.A.a_worst with
          | Some w -> Printf.sprintf "%s %+.3f" w.A.q_name w.A.q_rel_err
          | None -> "-")
     | A.Skipped reason -> pf "%-24s skip  (%s)\n" name reason
     | A.Failed reason ->
       incr failures;
       pf "%-24s FAIL  (%s)\n" name reason))
    (Suite.jobs ());
  pf "\n";
  if !failures > 0 then failwith "bench: cost-model audit found failures"

(* ------------------------------------------------------------------ *)
(* Parallel runtime backend: sequential vs block-parallel wall time    *)
(* ------------------------------------------------------------------ *)

let record_runtime ~kernel ~series ms =
  runtime_wall := (kernel ^ "." ^ series, ms) :: !runtime_wall;
  record_point ~fig:"runtime" ~series:kernel ~x:series ms

(* one timeline-recording run per kernel, outside the timed series:
   build the runtime report, audit achieved overlap against the model
   bound, and fail the whole bench on an unsound accounting (achieved
   above the bound) — a Warn (host couldn't deliver the overlap, e.g.
   1-core CI) is recorded but does not fail *)
let record_runtime_report ~kernel run =
  let module O = Emsc_audit.Overlap in
  let _, report = Runner.with_runtime_report run in
  match report with
  | None ->
    failwith ("bench: runtime: " ^ kernel ^ " recorded no runtime timeline")
  | Some r ->
    let a = O.audit ~double_buffer:true r in
    let fields =
      match Emsc_obs.Runtime_report.to_json r with
      | J.Obj fs -> fs @ [ ("overlap_audit", O.json a) ]
      | j -> [ ("report", j); ("overlap_audit", O.json a) ]
    in
    runtime_reports := (kernel, J.Obj fields) :: !runtime_reports;
    pf "%-12s %-10s overlap %.2f of bound %.2f  (%s)\n" kernel "report"
      a.O.o_achieved a.O.o_bound
      (Emsc_audit.Audit.verdict_string a.O.o_verdict);
    if not (O.ok a) then
      failwith
        ("bench: runtime: " ^ kernel
       ^ " overlap audit failed (measured overlap above the model bound)")

let runtime_jobs () =
  let cap =
    match Sys.getenv_opt "EMSC_BENCH_RUNTIME_MAX_J" with
    | Some s -> (try max 1 (int_of_string s) with _ -> 8)
    | None -> 8
  in
  List.filter (fun j -> j <= cap) [ 1; 2; 4; 8 ]

let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let totals_str (r : Exec.result) =
  J.to_string (Exec.counters_json r.Exec.totals)

(* bit-for-bit: every global array equal, counter totals identical *)
let assert_matches ~kernel ~series (prog : Prog.t) (m_seq, r_seq)
    (m_par, r_par) =
  List.iter (fun (d : Prog.array_decl) ->
    if not (Memory.arrays_equal ~eps:0.0 m_seq m_par d.Prog.array_name)
    then
      failwith
        (Printf.sprintf "bench: runtime: %s %s diverges from sequential on %s"
           kernel series d.Prog.array_name))
    prog.Prog.arrays;
  let js = totals_str r_seq and jp = totals_str r_par in
  if js <> jp then
    failwith
      (Printf.sprintf
         "bench: runtime: %s %s counter totals diverge: %s vs %s" kernel
         series jp js)

let runtime_compiled ~kernel job =
  let c = compiled job in
  let prog = c.Pipeline.prog in
  let (seq, seq_ms) =
    time_run (fun () ->
      Runner.simulate ~mode:Exec.Full ~memory:Runner.Pseudorandom c)
  in
  record_runtime ~kernel ~series:"seq" seq_ms;
  pf "%-12s %-10s %10.1f ms\n" kernel "seq" seq_ms;
  List.iter (fun j ->
    let series = Printf.sprintf "par-j%d" j in
    let (par, ms) =
      time_run (fun () ->
        Runner.simulate ~memory:Runner.Pseudorandom ~backend:(`Par j) c)
    in
    assert_matches ~kernel ~series prog seq par;
    record_runtime ~kernel ~series ms;
    pf "%-12s %-10s %10.1f ms  (%.2fx, bit-identical)\n" kernel series ms
      (seq_ms /. ms))
    (runtime_jobs ());
  (* one pipelined (double-buffered DMA) point at the widest domain
     count, same equality requirement *)
  let jmax = List.fold_left max 1 (runtime_jobs ()) in
  let series = Printf.sprintf "db-j%d" jmax in
  let (par, ms) =
    time_run (fun () ->
      Runner.simulate ~memory:Runner.Pseudorandom ~backend:(`Par jmax)
        ~double_buffer:true c)
  in
  assert_matches ~kernel ~series prog seq par;
  record_runtime ~kernel ~series ms;
  pf "%-12s %-10s %10.1f ms  (%.2fx, bit-identical)\n" kernel series ms
    (seq_ms /. ms);
  record_runtime_report ~kernel (fun () ->
    Runner.simulate ~memory:Runner.Pseudorandom ~backend:(`Par jmax)
      ~double_buffer:true c)

(* the overlapped stencil goes through Runner.execute: a host time loop
   of block-parallel launches with a global barrier between time tiles,
   and real Fence-delimited movement phases for the DMA pipeline *)
let runtime_stencil ~kernel ~n ~steps ~ts ~tt =
  let prog = Jacobi1d.program ~n ~steps in
  let k = Stencil.overlapped_1d ~n ~steps ~ts ~tt prog in
  let run ?backend ?double_buffer () =
    Runner.execute ~prog ~local_ref:k.Stencil.local_ref
      ~locals:k.Stencil.locals ~mode:Exec.Full ~memory:Runner.Pseudorandom
      ?backend ?double_buffer ~block_words:k.Stencil.smem_words
      k.Stencil.ast
  in
  let (seq, seq_ms) = time_run (fun () -> run ()) in
  record_runtime ~kernel ~series:"seq" seq_ms;
  pf "%-12s %-10s %10.1f ms  (%d launches)\n" kernel "seq" seq_ms
    k.Stencil.time_tiles;
  List.iter (fun j ->
    List.iter (fun (tag, double_buffer) ->
      let series = Printf.sprintf "%s-j%d" tag j in
      let (par, ms) =
        time_run (fun () -> run ~backend:(`Par j) ~double_buffer ())
      in
      assert_matches ~kernel ~series prog seq par;
      record_runtime ~kernel ~series ms;
      pf "%-12s %-10s %10.1f ms  (%.2fx, bit-identical)\n" kernel series ms
        (seq_ms /. ms))
      [ ("par", false); ("db", true) ])
    (runtime_jobs ());
  let jmax = List.fold_left max 1 (runtime_jobs ()) in
  record_runtime_report ~kernel (fun () ->
    run ~backend:(`Par jmax) ~double_buffer:true ())

let runtime () =
  pf "=== Runtime backend: sequential vs block-parallel (wall ms) ===\n";
  record_note ~fig:"runtime" "host_cores" (J.Int (Pipeline.default_jobs ()));
  record_note ~fig:"runtime" "jobs"
    (J.List (List.map (fun j -> J.Int j) (runtime_jobs ())));
  runtime_compiled ~kernel:"me-128" (Me.job ~ni:128 ~nj:128 ~ws:8 ());
  runtime_compiled ~kernel:"matmul-96" (Matmul.job ~n:96 ());
  runtime_stencil ~kernel:"jacobi-16k" ~n:16384 ~steps:64 ~ts:256 ~tt:8;
  pf
    "(speedup is bounded by the host's cores — %d here; every parallel \
     point is checked bit-identical to sequential)\n\n"
    (Pipeline.default_jobs ())

(* ------------------------------------------------------------------ *)
(* N-level hierarchy: per-edge movement under 2- vs 3-level placement  *)
(* ------------------------------------------------------------------ *)

(* One Full-fidelity run per kernel measures the per-buffer DMA words
   (machine-independent: the generated movement code is the same);
   each machine then aggregates those words over its own placement.
   On the 2-level gtx8800 every buffer sits in smem, so the single
   smem<-dram edge carries everything; the 3-level variant promotes
   small buffers to the register file, and the same traffic shows up
   on both the regs<-smem and smem<-dram edges of their paths. *)
let hierarchy () =
  pf "=== Hierarchy: per-edge movement, 2-level vs 3-level placement ===\n";
  let module H = Emsc_machine.Hierarchy in
  let module P = Emsc_machine.Placement in
  let module M = Emsc_obs.Metrics in
  let machines = [ H.gtx8800; H.gtx8800_3level ] in
  let kernels =
    [ ("matmul-96", Matmul.job ~n:96 ()); ("conv2d", Conv2d.job ()) ]
  in
  List.iter (fun (kernel, job) ->
    let c = compiled job in
    let plan = plan_of c in
    let snap0 = M.snapshot () in
    let _, result = Runner.simulate ~mode:Exec.Full c in
    let measured = M.diff snap0 (M.snapshot ()) in
    note_counters kernel result.Exec.totals;
    let moved (p : P.placed) =
      let labels = [ ("buffer", p.P.p_buffer) ] in
      int_of_float
        (M.counter_value ~labels measured "exec.move_in_words"
         +. M.counter_value ~labels measured "exec.move_out_words")
    in
    List.iter (fun hier ->
      let placement = P.of_plan hier plan Runner.zero_env in
      if not (P.ok placement) then
        failwith
          (Printf.sprintf "bench: hierarchy: %s does not fit on %s" kernel
             (H.name hier));
      List.iter (fun (edge, words) ->
        let key =
          Printf.sprintf "%s.%s.%s" kernel (H.name hier) edge
        in
        level_movement := (key, float_of_int words) :: !level_movement;
        record_point ~fig:"hierarchy" ~series:(H.name hier ^ "." ^ edge)
          ~x:kernel ~unit_:"words" (float_of_int words);
        pf "%-12s %-28s %-12s %10d words\n" kernel (H.name hier) edge words)
        (P.edge_totals hier placement ~words_of:moved);
      List.iter (fun (p : P.placed) ->
        pf "%-12s %-28s   %s <- %s at %s (%d words)\n" kernel (H.name hier)
          p.P.p_buffer p.P.p_array p.P.p_level p.P.p_words)
        placement.P.pl_placed)
      machines)
    kernels;
  pf "(identical generated movement; the 3-level machine splits it \
      across its edge path)\n\n"

(* ------------------------------------------------------------------ *)
(* Inter-tile reuse: full vs delta transfer volume                     *)
(* ------------------------------------------------------------------ *)

(* The same kernel, same block tiling, compiled twice: once with full
   per-block movement, once with --inter-tile-reuse delta movement.
   Both runs execute Full-fidelity on pseudorandom memory and must
   leave bit-identical arrays; the measured per-buffer movement words
   prove the transfer-volume drop.  Each delta compilation is also
   pushed through the cost-model audit, whose reuse section gates
   "delta never moves more than the redundant counterfactual". *)
let inter_tile () =
  pf "=== Inter-tile reuse: measured transfer volume, full vs delta ===\n";
  let module M = Emsc_obs.Metrics in
  let module A = Emsc_audit.Audit in
  let t b = { Tile.block = b; mem = None; thread = None } in
  let stencil1d_src =
    {|
    array nxt[1024];
    array cur[1026];
    for (i = 0; i <= 1023; i++) {
      nxt[i] = (cur[i] + cur[i+1] + cur[i+2]) / 3;
    }
    |}
  in
  (* (kernel, source, block-only tile spec, stencil?).  Stencil-class
     kernels (sliding-window reads) must show a strict drop; matmul's
     innermost-origin footprints are disjoint per block for C and
     origin-invariant for A, so delta <= full still holds *)
  let kernels =
    [ ( "stencil1d",
        Source.Text { name = "stencil1d-1k"; text = stencil1d_src },
        [| t (Some 64) |], true );
      ( "conv2d",
        Source.Program
          { name = "conv2d-reuse"; prog = Conv2d.program ~n:32 ~kw:3 },
        [| t (Some 8); t (Some 8); t None; t None |], true );
      ( "me",
        Source.Program
          { name = "me-reuse"; prog = Me.program ~ni:32 ~nj:32 ~ws:8 },
        [| t (Some 8); t (Some 8); t None; t None |], true );
      ( "matmul",
        Source.Program { name = "matmul-reuse"; prog = Matmul.program ~n:32 },
        [| t (Some 8); t (Some 8); t None |], false ) ]
  in
  pf "%-10s %12s %12s %9s\n" "kernel" "full" "delta" "saved";
  List.iter (fun (kernel, source, spec, stencil) ->
    let job reuse =
      Pipeline.job
        ~options:
          { Options.default with
            arch = `Cell; find_band = false;
            tiling = Options.Spec spec; inter_tile_reuse = reuse }
        source
    in
    let run c =
      let plan = plan_of c in
      let snap0 = M.snapshot () in
      let m, result =
        Runner.simulate ~mode:Exec.Full ~memory:Runner.Pseudorandom c
      in
      let measured = M.diff snap0 (M.snapshot ()) in
      note_counters ("intertile-" ^ kernel) result.Exec.totals;
      let per_buffer =
        List.map (fun (b : Plan.buffered) ->
          let name = b.Plan.buffer.Alloc.local_name in
          let labels = [ ("buffer", name) ] in
          ( name,
            M.counter_value ~labels measured "exec.move_in_words"
            +. M.counter_value ~labels measured "exec.move_out_words" ))
          plan.Plan.buffered
      in
      (m, List.fold_left (fun a (_, w) -> a +. w) 0.0 per_buffer, per_buffer)
    in
    let c_full = compiled (job false) in
    let c_delta = compiled (job true) in
    (match plan_of c_delta with
     | plan when List.exists (fun (b : Plan.buffered) -> b.Plan.reuse <> None)
                   plan.Plan.buffered -> ()
     | _ -> failwith ("bench: inter_tile: " ^ kernel ^ " planned no reuse"));
    let m_full, w_full, per_full = run c_full in
    let m_delta, w_delta, per_delta = run c_delta in
    (* same program, same pseudorandom init: residency must not change
       the arrays at all *)
    List.iter (fun (d : Prog.array_decl) ->
      if not (Memory.arrays_equal ~eps:0.0 m_full m_delta d.Prog.array_name)
      then
        failwith
          (Printf.sprintf "bench: inter_tile: %s diverges on %s" kernel
             d.Prog.array_name))
      c_full.Pipeline.prog.Prog.arrays;
    if w_delta > w_full then
      failwith
        (Printf.sprintf
           "bench: inter_tile: %s delta movement (%.0f) exceeds full (%.0f)"
           kernel w_delta w_full);
    if stencil && not (w_delta < w_full) then
      failwith
        (Printf.sprintf
           "bench: inter_tile: stencil %s shows no transfer-volume drop \
            (full %.0f, delta %.0f)"
           kernel w_full w_delta);
    transfer_volume := (kernel ^ ".full", w_full)
                       :: (kernel ^ ".delta", w_delta) :: !transfer_volume;
    List.iter (fun (b, w) ->
      transfer_volume :=
        (Printf.sprintf "%s.full.%s" kernel b, w) :: !transfer_volume)
      per_full;
    List.iter (fun (b, w) ->
      transfer_volume :=
        (Printf.sprintf "%s.delta.%s" kernel b, w) :: !transfer_volume)
      per_delta;
    record_point ~fig:"inter_tile" ~series:"full" ~x:kernel ~unit_:"words"
      w_full;
    record_point ~fig:"inter_tile" ~series:"delta" ~x:kernel ~unit_:"words"
      w_delta;
    pf "%-10s %12.0f %12.0f %8.1f%%\n" kernel w_full w_delta
      ((w_full -. w_delta) /. Float.max 1.0 w_full *. 100.0);
    (* per-buffer audit: predictions stay sound under delta movement,
       and no reuse buffer moves more than the redundant counterfactual *)
    match A.audit_job ~cache:bench_cache (job true) with
    | A.Audited a ->
      audit_results := A.outcome_json ~name:("intertile-" ^ kernel) (A.Audited a)
                       :: !audit_results;
      List.iter (fun (g : A.reuse_group) ->
        pf "  %-24s redundant %10.0f  irredundant %10.0f  (saved %.1f%%)\n"
          g.A.r_buffer g.A.r_redundant g.A.r_irredundant
          ((g.A.r_redundant -. g.A.r_irredundant)
           /. Float.max 1.0 g.A.r_redundant *. 100.0))
        a.A.a_reuse;
      if a.A.a_verdict = A.Fail then
        failwith ("bench: inter_tile: audit failed on " ^ kernel)
    | A.Skipped r | A.Failed r ->
      failwith ("bench: inter_tile: audit did not run on " ^ kernel ^ ": " ^ r))
    kernels;
  pf "(delta mode must never move more; stencils must move strictly less)\n\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the compiler passes                    *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let fig1 = Fig1.program in
  let t_partition =
    Test.make ~name:"dataspaces+partition(fig1)"
      (Staged.stage (fun () -> ignore (Dataspaces.partition_all fig1)))
  in
  let t_deps =
    Test.make ~name:"dependence-analysis(fig1)"
      (Staged.stage (fun () -> ignore (Deps.analyze fig1)))
  in
  let mm = Matmul.program ~n:16 in
  let mm_deps = Deps.analyze mm in
  let t_band =
    Test.make ~name:"hyperplane-band(matmul)"
      (Staged.stage (fun () -> ignore (Hyperplanes.find_band mm mm_deps)))
  in
  (* end-to-end pipeline, cold vs warm pass cache *)
  let t_pipeline_cold =
    Test.make ~name:"driver-pipeline-cold(fig1)"
      (Staged.stage (fun () ->
         match Pipeline.compile ~cache:Emsc_driver.Cache.off (Fig1.job ()) with
         | Ok _ -> ()
         | Error e -> failwith (Frontend.error_message e)))
  in
  let t_tile_cold =
    Test.make ~name:"driver-tile+plan-cold(matmul)"
      (Staged.stage (fun () ->
         match
           Pipeline.compile ~cache:Emsc_driver.Cache.off (Matmul.job ~n:16 ())
         with
         | Ok _ -> ()
         | Error e -> failwith (Frontend.error_message e)))
  in
  let warm = Emsc_driver.Cache.in_memory () in
  let t_tile_warm =
    Test.make ~name:"driver-tile+plan-warm(matmul)"
      (Staged.stage (fun () ->
         match Pipeline.compile ~cache:warm (Matmul.job ~n:16 ()) with
         | Ok _ -> ()
         | Error e -> failwith (Frontend.error_message e)))
  in
  let tests =
    Test.make_grouped ~name:"compiler-passes"
      [ t_partition; t_deps; t_band; t_pipeline_cold; t_tile_cold;
        t_tile_warm ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  pf "=== Compiler-pass micro-benchmarks (monotonic clock) ===\n";
  Hashtbl.iter (fun _ tbl ->
    Hashtbl.iter (fun name res ->
      match Analyze.OLS.estimates res with
      | Some [ est ] ->
        record_point ~fig:"micro" ~series:name ~x:"ols" ~unit_:"ns/run" est;
        pf "%-44s %14.0f ns/run\n" name est
      | Some _ | None -> pf "%-44s %14s\n" name "n/a")
      tbl)
    merged;
  pf "\n"

(* --- serve: compile-daemon latency SLO ---------------------------- *)

(* Load-test `emsc serve` in-process: one daemon domain over a shared
   two-layer pass cache (LRU-capped memory in front of a scratch disk
   dir), hammered by concurrent client connections issuing block-tiled
   matmul compiles.  Each of the distinct sources is compiled once
   cold and then repeatedly warm, so the figure measures exactly what
   a developer loop sees: cold-compile latency at the tail, hot-cache
   latency at the median. *)

let serve_sources =
  List.init 8 (fun i ->
    let n = 16 + (8 * i) in
    let name = Printf.sprintf "serve-mm%d" n in
    let text =
      Printf.sprintf
        "array A[%d][%d];\narray B[%d][%d];\narray C[%d][%d];\n\
         for (i = 0; i <= %d; i++) {\n\
        \  for (j = 0; j <= %d; j++) {\n\
        \    for (k = 0; k <= %d; k++) {\n\
        \      C[i][j] += A[i][k] * B[k][j];\n\
        \    }\n\
        \  }\n\
         }\n"
        n n n n n n (n - 1) (n - 1) (n - 1)
    in
    (name, text))

let serve_options =
  { Emsc_serve.Protocol.default_options with
    o_block = [ 8; 8; 0 ]; o_mem = [ 8; 8; 8 ] }

let serve_fig () =
  let module SP = Emsc_serve.Protocol in
  let module SC = Emsc_serve.Client in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emsc-serve-bench-%d.sock" (Unix.getpid ()))
  in
  let disk_dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "emsc-serve-bench-cache-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  (* a cap below the working set forces evictions, so warm requests
     also exercise the disk layer (hit-after-evict) *)
  let cache = Emsc_driver.Cache.create ~dir:disk_dir ~max_entries:16 () in
  let workers = max 2 (min 4 (Pipeline.default_jobs ())) in
  let cfg =
    Emsc_serve.Server.config ~workers ~queue_capacity:256 ~cache
      (`Unix sock)
  in
  let srv = Domain.spawn (fun () -> Emsc_serve.Server.run cfg) in
  let n_clients = 4 and rounds = 3 in
  let client ci =
    match SC.connect (`Unix sock) with
    | Error m -> failwith ("serve bench: connect: " ^ m)
    | Ok conn ->
      let lats = ref [] in
      for round = 0 to rounds - 1 do
        List.iteri
          (fun i (name, text) ->
            let req =
              { SP.req_id = Printf.sprintf "c%d-r%d-%d" ci round i;
                op = SP.Compile { name; text; options = serve_options };
                timeout_ms = None }
            in
            let t0 = Unix.gettimeofday () in
            match SC.roundtrip conn req with
            | Ok resp when resp.SC.ok ->
              lats := (Unix.gettimeofday () -. t0) *. 1000.0 :: !lats
            | Ok resp ->
              failwith
                (Printf.sprintf "serve bench: %s rejected: %s" name
                   (match resp.SC.error with
                    | Some r -> r.SP.code ^ ": " ^ r.SP.message
                    | None -> "?"))
            | Error m -> failwith ("serve bench: " ^ m))
          serve_sources
      done;
      SC.close conn;
      !lats
  in
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init n_clients (fun ci -> Domain.spawn (fun () -> client ci))
  in
  let lats = List.concat_map Domain.join doms in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match
     SC.once (`Unix sock)
       { SP.req_id = "bye"; op = SP.Shutdown; timeout_ms = None }
   with
   | Ok _ -> ()
   | Error m -> pf "serve: shutdown: %s\n" m);
  let stats = Domain.join srv in
  let sorted = Array.of_list (List.sort compare lats) in
  let total = Array.length sorted in
  if total = 0 then failwith "serve bench: no latencies";
  let q p =
    sorted.(min (total - 1) (int_of_float (p *. float_of_int total)))
  in
  let mean = Array.fold_left ( +. ) 0.0 sorted /. float_of_int total in
  let throughput = float_of_int total /. wall_s in
  let lookups =
    Emsc_driver.Cache.hits cache + Emsc_driver.Cache.misses cache
  in
  let rate n = if lookups = 0 then 0.0 else float_of_int n /. float_of_int lookups in
  let hot_hit = rate (Emsc_driver.Cache.hot_hits cache) in
  let disk_hit = rate (Emsc_driver.Cache.disk_hits cache) in
  record_point ~fig:"serve" ~series:"latency" ~x:"p50" (q 0.50);
  record_point ~fig:"serve" ~series:"latency" ~x:"p95" (q 0.95);
  record_point ~fig:"serve" ~series:"latency" ~x:"p99" (q 0.99);
  record_point ~fig:"serve" ~series:"throughput" ~x:"total" ~unit_:"req/s"
    throughput;
  record_note ~fig:"serve" "requests" (J.Int total);
  record_note ~fig:"serve" "served" (J.Int stats.Emsc_serve.Server.served);
  record_note ~fig:"serve" "evictions"
    (J.Int (Emsc_driver.Cache.evictions cache));
  serve_summary :=
    [ ("p50_ms", J.Float (q 0.50));
      ("p95_ms", J.Float (q 0.95));
      ("p99_ms", J.Float (q 0.99));
      ("mean_ms", J.Float mean);
      ("throughput_rps", J.Float throughput);
      ("requests", J.Int total);
      ("clients", J.Int n_clients);
      ("workers", J.Int workers);
      ("hot_hit_rate", J.Float hot_hit);
      ("hot_miss_rate", J.Float (1.0 -. hot_hit));
      ("disk_hit_rate", J.Float disk_hit);
      ("evictions", J.Int (Emsc_driver.Cache.evictions cache)) ];
  pf
    "=== serve: %d requests over %d clients x %d workers ===\n\
     p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  %.1f req/s\n\
     hot hit rate %.2f  disk hit rate %.2f  evictions %d\n\n"
    total n_clients workers (q 0.50) (q 0.95) (q 0.99) throughput hot_hit
    disk_hit
    (Emsc_driver.Cache.evictions cache)

(* ------------------------------------------------------------------ *)
(* Exact-arithmetic cost: Q operations and the LP solver              *)
(* ------------------------------------------------------------------ *)

(* Fixed iteration counts and a fixed seed, so every run does the same
   work; only the clock differs.  Profiling is off for the figure: probe
   overhead would inflate the per-call numbers, and the calls are not a
   compile. *)
let arith () =
  let module Simplex = Emsc_poly.Simplex in
  let module Poly = Emsc_poly.Poly in
  let module Vec = Emsc_linalg.Vec in
  let profiling = Emsc_obs.Prof.enabled () in
  Emsc_obs.Prof.disable ();
  pf "=== Exact arithmetic: Q operations and LP calls ===\n";
  let per_call ~iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let limb = Zint.shift_left (Zint.of_int 3) 70 in
  let operands =
    [ ("int", Q.of_int 12345, Q.of_int (-678));
      ("fraction", Q.of_ints 355 113, Q.of_ints (-22) 7);
      ( "limb",
        Q.make (Zint.add limb Zint.one) (Zint.of_int 7),
        Q.make (Zint.sub limb Zint.two) (Zint.of_int 11) ) ]
  in
  List.iter (fun (kind, a, b) ->
    List.iter (fun (op, f) ->
      let ns = 1e9 *. per_call ~iters:200_000 (fun () -> f a b) in
      record_point ~fig:"arith" ~series:op ~x:kind ~unit_:"ns" ns;
      pf "%-6s %-9s %8.1f ns\n" op kind ns)
      [ ("Q.add", Q.add); ("Q.mul", Q.mul) ])
    operands;
  (* small random systems, some of them empty *)
  let rng = Random.State.make [| 20080220 |] in
  let systems =
    List.init 200 (fun _ ->
      let dim = 2 + Random.State.int rng 4 in
      let row () =
        Vec.of_array
          (Array.init (dim + 1) (fun k ->
             if k = dim then Random.State.int rng 21 - 5
             else Random.State.int rng 11 - 5))
      in
      let ineqs =
        List.init (dim + 2 + Random.State.int rng 4) (fun _ -> row ())
      in
      let obj = Simplex.obj_of_vec (row ()) in
      (dim, ineqs, obj))
  in
  let over_systems f () = List.iter (fun sys -> ignore (f sys)) systems in
  let n = List.length systems in
  let us_minimize =
    1e6 /. float_of_int n
    *. per_call ~iters:20
         (over_systems (fun (dim, ineqs, obj) ->
            Simplex.minimize ~dim ~eqs:[] ~ineqs ~obj))
  in
  let us_is_empty =
    1e6 /. float_of_int n
    *. per_call ~iters:20
         (over_systems (fun (dim, ineqs, _) ->
            Poly.is_empty (Poly.make ~dim ~eqs:[] ~ineqs)))
  in
  let empty =
    List.length
      (List.filter (fun (dim, ineqs, _) ->
         Poly.is_empty (Poly.make ~dim ~eqs:[] ~ineqs))
         systems)
  in
  record_point ~fig:"arith" ~series:"Simplex.minimize" ~x:"systems-200"
    ~unit_:"us" us_minimize;
  record_point ~fig:"arith" ~series:"Poly.is_empty" ~x:"systems-200"
    ~unit_:"us" us_is_empty;
  record_note ~fig:"arith" "empty_systems" (J.Int empty);
  pf "Simplex.minimize %8.2f us   Poly.is_empty %8.2f us   \
      (%d systems, %d empty)\n\n"
    us_minimize us_is_empty n empty;
  if profiling then Emsc_obs.Prof.enable ()

(* ------------------------------------------------------------------ *)

let all_figs =
  [ ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("ablations", ablations); ("batch", batch);
    ("check", check); ("audit", audit); ("runtime", runtime);
    ("hierarchy", hierarchy); ("inter_tile", inter_tile);
    ("serve", serve_fig); ("micro", micro); ("arith", arith) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst all_figs
  in
  (* one registry feeds the artifact: value totals (pass cache, exec
     movement, fuzz progress), pass timings and per-pass self times with
     caller attribution *)
  Emsc_obs.Prof.enable ();
  let figure_ms =
    List.filter_map (fun name ->
      match List.assoc_opt name all_figs with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        f ();
        Some (name, (Unix.gettimeofday () -. t0) *. 1000.0)
      | None ->
        pf "unknown artifact %s\n" name;
        None)
      requested
  in
  write_bench_json ~figure_ms
