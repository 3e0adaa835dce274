(* lib/runtime: the block-parallel execution backend.  Bit-for-bit
   equality with the sequential interpreter (arrays, counter totals,
   launch shapes) across job counts and double buffering; the one
   static block schedule; arena-pool semantics; the DMA pipeline
   splitter; the write-ownership tracker; the double-buffer capacity
   rule; and the lanes a run borrows its worker and DMA domains from
   (reused across runs, retired when idle, left usable by a failed
   run). *)

open Emsc_arith
open Emsc_ir
open Emsc_codegen
open Emsc_core
open Emsc_machine
open Emsc_driver
open Emsc_runtime

let compiled job =
  match Pipeline.compile job with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile failed: %s" (Frontend.error_message e)

let totals_json (r : Exec.result) =
  Emsc_obs.Json.to_string (Exec.counters_json r.Exec.totals)

let grids (r : Exec.result) =
  List.map (fun (l : Exec.launch) -> l.Exec.grid) r.Exec.launches

(* arrays, reduced totals and launch structure must all match exactly *)
let check_same (prog : Prog.t) (m_seq, r_seq) (m_par, r_par) =
  List.iter (fun (d : Prog.array_decl) ->
    Alcotest.(check bool)
      (d.Prog.array_name ^ " bit-identical") true
      (Memory.arrays_equal ~eps:0.0 m_seq m_par d.Prog.array_name))
    prog.Prog.arrays;
  Alcotest.(check string) "counter totals" (totals_json r_seq)
    (totals_json r_par);
  Alcotest.(check (list (float 0.0))) "launch grids" (grids r_seq)
    (grids r_par)

let simulate_seq c =
  Runner.simulate ~mode:Exec.Full ~memory:Runner.Pseudorandom c

let simulate_par ?(double_buffer = false) ~jobs c =
  Runner.simulate ~memory:Runner.Pseudorandom ~backend:(`Par jobs)
    ~double_buffer ~track_ownership:true c

(* --- parallel == sequential on real kernels ------------------------------ *)

let test_par_matches_seq_matmul () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~jobs:3 c)

let test_par_matches_seq_me () =
  let c = compiled (Emsc_kernels.Me.job ()) in
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~jobs:4 c)

(* the static schedule with and without the DMA pipeline *)
let test_static_with_and_without_double_buffer () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  List.iter (fun (jobs, double_buffer) ->
    check_same c.Pipeline.prog seq (simulate_par ~double_buffer ~jobs c))
    [ (4, false); (4, true); (2, false); (2, true) ]

(* job-count invariance: the barrier reduction runs in block order, so
   the totals must not depend on how blocks were spread over domains *)
let test_totals_invariant_in_jobs () =
  let c = compiled (Emsc_kernels.Me.job ()) in
  let _, r1 = simulate_par ~jobs:1 c in
  let _, r8 = simulate_par ~jobs:8 c in
  Alcotest.(check string) "-j1 == -j8 totals" (totals_json r1)
    (totals_json r8);
  Alcotest.(check (list (float 0.0))) "-j1 == -j8 grids" (grids r1)
    (grids r8)

(* a triangular domain tiled by its 8x8 bounding-box blocks: the blocks
   straddling the diagonal must run only the triangle's instances, on
   Seq and on Par 2, or A picks up products from above the diagonal *)
let test_triangle_tiled_matches_reference () =
  let src =
    "array A[32][32];\n\
     array B[32][32];\n\
     for (i = 0; i <= 31; i++) {\n\
    \  for (j = 0; j <= i; j++) {\n\
    \    A[i][j] = B[i][j] * B[j][i];\n\
    \  }\n\
     }\n"
  in
  let prog = Emsc_lang.Parser.parse src in
  let spec =
    Emsc_transform.Tile.spec_of_lists ~depth:2 ~block:[| 8; 8 |] ~mem:[||]
      ~thread:[||]
  in
  let options =
    { Options.default with
      Options.find_band = false; tiling = Options.Spec spec }
  in
  let c =
    compiled
      (Pipeline.job ~options (Source.Program { name = "triangle"; prog }))
  in
  let m_ref, ref_counters = Runner.reference ~memory:Runner.Pseudorandom prog in
  List.iter
    (fun (name, (m, (r : Exec.result))) ->
      Alcotest.(check bool) (name ^ ": A equals the reference") true
        (Memory.arrays_equal ~eps:0.0 m_ref m "A");
      Alcotest.(check (float 0.0)) (name ^ ": one store per instance")
        ref_counters.Exec.g_st r.Exec.totals.Exec.g_st)
    [ ("seq", simulate_seq c); ("par 2", simulate_par ~jobs:2 c) ]

(* multi-launch host loop with Fence-delimited movement phases: the
   overlapped stencil through Runner.execute, pipelined and not *)
let test_stencil_multi_launch () =
  let n = 1024 and steps = 16 and ts = 64 and tt = 4 in
  let prog = Emsc_kernels.Jacobi1d.program ~n ~steps in
  let k = Emsc_transform.Stencil.overlapped_1d ~n ~steps ~ts ~tt prog in
  let run ?backend ?(double_buffer = false) () =
    Runner.execute ~prog ~local_ref:k.Emsc_transform.Stencil.local_ref
      ~locals:k.Emsc_transform.Stencil.locals ~mode:Exec.Full
      ~memory:Runner.Pseudorandom ?backend ~double_buffer
      ~track_ownership:true
      ~block_words:k.Emsc_transform.Stencil.smem_words
      k.Emsc_transform.Stencil.ast
  in
  let seq = run () in
  let _, r_seq = seq in
  Alcotest.(check int) "one launch per time tile"
    k.Emsc_transform.Stencil.time_tiles
    (List.length r_seq.Exec.launches);
  check_same prog seq (run ~backend:(`Par 4) ());
  check_same prog seq (run ~backend:(`Par 4) ~double_buffer:true ())

(* --- ownership tracker --------------------------------------------------- *)

(* every block increments A[0]: a genuine cross-block write-write race
   the tracker must refuse (sequential execution happens to be
   deterministic, which is exactly why it needs a runtime check) *)
let racy_prog =
  let np = 0 in
  let w = Prog.mk_access ~array:"A" ~kind:Prog.Write ~rows:[ [ 0; 0 ] ] in
  let r = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 0; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"S_racy" ~np ~depth:1 ~iter_names:[| "i" |]
      ~domain:(Build.box_domain ~np [ (0, 3) ])
      ~writes:[ w ] ~reads:[ r ]
      ~body:(w, Prog.Eadd (Prog.Eref r, Prog.Econst 1.0))
      ~beta:[ 0; 0 ] ()
  in
  { Prog.params = [||];
    arrays = [ Build.array1 "A" 8 ~np ];
    stmts = [ s ] }

let racy_ast =
  [ Ast.Loop
      { Ast.var = "i"; lb = Ast.Const Zint.zero;
        ub = Ast.Const (Zint.of_int 3); step = Zint.one; par = Ast.Block;
        body =
          [ Ast.Stmt_call { stmt_id = 1; iter_args = [| Ast.Var "i" |] } ] } ]

let test_tracker_catches_race () =
  (* the sequential interpreter accepts it... *)
  let _, r = Runner.execute ~prog:racy_prog ~mode:Exec.Full racy_ast in
  let flops_seq = r.Exec.totals.Exec.flops in
  Alcotest.(check bool) "work happened" true (flops_seq > 0.0);
  (* ...the parallel backend with tracking must not (the offending block
     pair depends on scheduling, so only the array name is asserted) *)
  match
    Runner.execute ~prog:racy_prog ~backend:(`Par 2) ~track_ownership:true
      racy_ast
  with
  | _ -> Alcotest.fail "write-write race went undetected"
  | exception Runtime.Ownership_violation msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "violation names the array (%s)" msg)
      true
      (contains msg "A (word 0)")

let test_tracker_off_by_default () =
  (* without tracking the race executes (numerically wrong but silent):
     the backend only promises determinism for race-free plans *)
  let _, r = Runner.execute ~prog:racy_prog ~backend:(`Par 1) racy_ast in
  Alcotest.(check bool) "runs" true (r.Exec.totals.Exec.flops > 0.0)

(* --- arena pool: peak gauge, idempotence, occupancy cap ------------------ *)

let arena_base () =
  let m = Runner.prepare ~param_env:Runner.no_params racy_prog in
  Memory.declare_local m "l_buf";
  m

let test_arena_release_idempotent_and_peak () =
  let pool = Arena.create_pool ~base:(arena_base ()) () in
  let a = Arena.acquire pool ~words:40 in
  let b = Arena.acquire pool ~words:40 in
  Alcotest.(check int) "two in use" 2 (Arena.in_use pool);
  Memory.write_local (Arena.memory a) "l_buf" [| 0 |] 1.0;
  Memory.write_local (Arena.memory a) "l_buf" [| 1 |] 2.0;
  Memory.write_local (Arena.memory b) "l_buf" [| 0 |] 3.0;
  Arena.release a;
  Arena.release a;  (* idempotent *)
  Alcotest.(check int) "one in use after double release" 1
    (Arena.in_use pool);
  Arena.release b;
  Alcotest.(check int) "none in use" 0 (Arena.in_use pool);
  Alcotest.(check int) "peak concurrent arenas" 2 (Arena.peak_in_use pool);
  (* the released views recorded their per-buffer peak occupancy *)
  Alcotest.(check (list (pair string int))) "peak occupancy"
    [ ("l_buf", 2) ]
    (Arena.peak_occupancy pool);
  (* recycled views come back with empty locals *)
  let c = Arena.acquire pool ~words:10 in
  Alcotest.(check int) "recycled view is clean" 0
    (Memory.local_words (Arena.memory c));
  Arena.release c

let test_arena_blocks_then_proceeds () =
  (* max_arenas 1: the second acquire must wait for the release *)
  let pool = Arena.create_pool ~max_arenas:1 ~base:(arena_base ()) () in
  let a = Arena.acquire pool ~words:1 in
  Alcotest.(check (option bool)) "try_acquire refuses while full" None
    (Option.map (fun _ -> true) (Arena.try_acquire pool ~words:1));
  Arena.release a;
  match Arena.try_acquire pool ~words:1 with
  | Some b -> Arena.release b
  | None -> Alcotest.fail "pool still full after release"

(* --- arena failure path ------------------------------------------------- *)

exception Fork_failed

(* forks happen only while the free list is empty, so holding every
   granted arena until the end makes each iteration fork anew: the
   hammer alternates injected fork failures with retries and checks the
   pool is left exactly as found after every failure (counters
   untouched, mutex released — the retry would deadlock otherwise) *)
let test_arena_fork_failure_hammer () =
  let should_fail = ref false in
  let fork m = if !should_fail then raise Fork_failed else Memory.fork_view m in
  let pool = Arena.create_pool ~fork ~base:(arena_base ()) () in
  let held = ref [] in
  for i = 1 to 20 do
    should_fail := true;
    (match Arena.acquire pool ~words:1 with
     | _ -> Alcotest.fail "acquire swallowed the fork failure"
     | exception Fork_failed -> ());
    Alcotest.(check int) "in_use untouched by failed acquire" (i - 1)
      (Arena.in_use pool);
    (match Arena.try_acquire pool ~words:1 with
     | _ -> Alcotest.fail "try_acquire swallowed the fork failure"
     | exception Fork_failed -> ());
    should_fail := false;
    held := Arena.acquire pool ~words:1 :: !held
  done;
  Alcotest.(check int) "every retry granted" 20 (Arena.in_use pool);
  Alcotest.(check int) "peak counts only successes" 20
    (Arena.peak_in_use pool);
  List.iter Arena.release !held;
  Alcotest.(check int) "drained" 0 (Arena.in_use pool)

(* --- inter-tile reuse (tentpole): chained residency ----------------------- *)

let conv2d_block_job ~inter_tile_reuse () =
  let t b = { Emsc_transform.Tile.block = b; mem = None; thread = None } in
  let spec = [| t (Some 8); t (Some 8); t None; t None |] in
  Pipeline.job
    ~options:
      { Options.default with
        find_band = false; tiling = Options.Spec spec; inter_tile_reuse }
    (Source.Program
       { name = "conv2d-reuse"; prog = Emsc_kernels.Conv2d.program ~n:32 ~kw:3 })

let test_inter_tile_matches_seq_and_moves_less () =
  let c = compiled (conv2d_block_job ~inter_tile_reuse:true ()) in
  (match c.Pipeline.plan with
   | Some p ->
     Alcotest.(check bool) "plan carries reuse" true
       (List.exists (fun (b : Plan.buffered) -> b.Plan.reuse <> None)
          p.Plan.buffered)
   | None -> Alcotest.fail "no plan");
  (* residency chains with delta movement stay bit-identical to the
     sequential interpreter across job counts *)
  let seq = simulate_seq c in
  check_same c.Pipeline.prog seq (simulate_par ~jobs:1 c);
  check_same c.Pipeline.prog seq (simulate_par ~jobs:3 c);
  (* and genuinely move less: the img halo columns and the whole w
     window stay resident between consecutive j-blocks *)
  let full = compiled (conv2d_block_job ~inter_tile_reuse:false ()) in
  let _, r_full = simulate_par ~jobs:3 full in
  let _, r_delta = simulate_par ~jobs:3 c in
  Alcotest.(check bool) "delta run loads strictly less" true
    (r_delta.Exec.totals.Exec.g_ld < r_full.Exec.totals.Exec.g_ld);
  Alcotest.(check (float 0.0)) "stores unchanged"
    r_full.Exec.totals.Exec.g_st r_delta.Exec.totals.Exec.g_st

(* --- executor golden: every observable of every run, bit for bit --------- *)

(* For every suite kernel with a generated kernel, plus the conv2d
   inter-tile job and the overlapped jacobi1d stencil, and for each of
   sequential [Full], sequential [Sampled 6], and the runtime at -j1,
   -j2 and -j2 double-buffered:
   each global array's bits, the counter totals, every launch's grid,
   per-block counters and repeat (all [%h]), and [local_occupancy].
   The sequential [Full] run also records the order of its global
   accesses through [on_global] (the cache simulator depends on it).
   The digest was recorded from the same printer on the tree-walking
   interpreter the executor replaced; a deliberate semantic change
   re-records it from the text the failing check prints. *)
let executor_golden_digest = "da3b569dd3552ee5845057248eda6587"

let executor_golden_text () =
  let b = Buffer.create 8192 in
  let pr fmt = Printf.bprintf b fmt in
  let counters (c : Exec.counters) =
    Printf.sprintf "%h %h %h %h %h %h %h" c.Exec.flops c.Exec.g_ld c.Exec.g_st
      c.Exec.s_ld c.Exec.s_st c.Exec.syncs c.Exec.fences
  in
  let simulated (job : Pipeline.job) =
    let c = compiled job in
    Option.map (fun _ ->
      ( Source.name job.Pipeline.source, c.Pipeline.prog,
        fun ~mode ?on_global ~backend ~double_buffer () ->
          Runner.simulate ~mode ~memory:Runner.Pseudorandom ?on_global
            ~backend ~double_buffer c ))
      c.Pipeline.tiled
  in
  (* the overlapped jacobi1d stencil: several launches, two local
     buffers and fenced movement phases *)
  let stencil =
    let n = 256 and steps = 8 and ts = 32 and tt = 4 in
    let prog = Emsc_kernels.Jacobi1d.program ~n ~steps in
    let k = Emsc_transform.Stencil.overlapped_1d ~n ~steps ~ts ~tt prog in
    ( "jacobi1d-overlapped", prog,
      fun ~mode ?on_global ~backend ~double_buffer () ->
        Runner.execute ~prog ~local_ref:k.Emsc_transform.Stencil.local_ref
          ~locals:k.Emsc_transform.Stencil.locals ~mode
          ~memory:Runner.Pseudorandom ?on_global ~backend ~double_buffer
          ~block_words:k.Emsc_transform.Stencil.smem_words
          k.Emsc_transform.Stencil.ast )
  in
  let runs =
    List.filter_map simulated
      (Emsc_kernels.Suite.jobs ()
       @ [ conv2d_block_job ~inter_tile_reuse:true () ])
    @ [ stencil ]
  in
  List.iter (fun (name, (prog : Prog.t), simulate) ->
      List.iter (fun (run, mode, backend, double_buffer) ->
        let trace = Buffer.create 4096 in
        let on_global =
          if run = "full" then
            Some (fun arr addr kind ->
              Printf.bprintf trace "%s %d %c\n" arr addr
                (match kind with `Ld -> 'l' | `St -> 's'))
          else None
        in
        let m, r = simulate ~mode ?on_global ~backend ~double_buffer () in
        pr "%s %s totals %s\n" name run (counters r.Exec.totals);
        List.iter (fun (l : Exec.launch) ->
          pr "  launch %h %s %h\n" l.Exec.grid (counters l.Exec.per_block)
            l.Exec.repeat)
          r.Exec.launches;
        List.iter (fun (d : Prog.array_decl) ->
          let n = d.Prog.array_name in
          let bits = Buffer.create 4096 in
          Array.iter (fun x ->
            Printf.bprintf bits "%Lx," (Int64.bits_of_float x))
            (Memory.global_data m n);
          pr "  array %s %s\n" n
            (Digest.to_hex (Digest.string (Buffer.contents bits))))
          prog.Prog.arrays;
        List.iter (fun (n, k) -> pr "  local %s %d\n" n k)
          (Memory.local_occupancy m);
        if run = "full" then
          pr "  on_global %d %s\n" (Buffer.length trace)
            (Digest.to_hex (Digest.string (Buffer.contents trace))))
        [ ("full", Exec.Full, `Seq, false);
          ("sampled6", Exec.Sampled 6, `Seq, false);
          ("j1", Exec.Full, `Par 1, false);
          ("j2", Exec.Full, `Par 2, false);
          ("j2db", Exec.Full, `Par 2, true) ])
    runs;
  Buffer.contents b

let test_executor_golden () =
  let text = executor_golden_text () in
  Alcotest.(check bool) "some runs" true
    (List.length (String.split_on_char '\n' text) > 20);
  Alcotest.(check string) ("digest of\n" ^ text) executor_golden_digest
    (Digest.to_hex (Digest.string text))

(* --- lowering: once per session, never per iteration or block -------------- *)

let rec stm_nodes (s : Ast.stm) =
  1
  + (match s with
     | Ast.Loop l -> List.fold_left (fun a s -> a + stm_nodes s) 0 l.Ast.body
     | Ast.Guard (_, body) -> List.fold_left (fun a s -> a + stm_nodes s) 0 body
     | Ast.Stmt_call _ | Ast.Copy _ | Ast.Sync | Ast.Fence | Ast.Comment _ -> 0)

(* the Prof counter [name], summed over every stack and domain, over
   one call of [f] *)
let prof_counter name f =
  let module P = Emsc_obs.Prof in
  P.reset ();
  P.enable ();
  let r =
    Fun.protect ~finally:(fun () -> P.disable ()) @@ fun () ->
    ignore (f ());
    List.fold_left (fun acc (fr : P.frame) ->
      acc
      +. Option.value ~default:0.0 (List.assoc_opt name fr.P.f_counters))
      0.0 (P.snapshot ())
  in
  P.reset ();
  int_of_float r

let lowered_stms f = prof_counter "exec.lowered_stms" f

let test_lowered_once_per_session () =
  let at n =
    let c = compiled (Emsc_kernels.Matmul.job ~n ()) in
    let ast = (Option.get c.Pipeline.tiled).Pipeline.ast in
    let nodes = List.fold_left (fun a s -> a + stm_nodes s) 0 ast in
    (nodes, lowered_stms (fun () -> simulate_seq c))
  in
  let nodes16, seq16 = at 16 and nodes64, seq64 = at 64 in
  Alcotest.(check int) "same AST shape at n=16 and n=64" nodes16 nodes64;
  Alcotest.(check int) "every node lowered exactly once (n=16)" nodes16 seq16;
  Alcotest.(check int) "lowering does not grow with the iterations" seq16 seq64

let test_runtime_lowers_once () =
  let lowered ?(double_buffer = false) n =
    let c = compiled (Emsc_kernels.Matmul.job ~n ()) in
    let blocks = ref 0.0 in
    let count =
      lowered_stms (fun () ->
        let _, r = simulate_par ~double_buffer ~jobs:2 c in
        blocks :=
          List.fold_left (fun a (l : Exec.launch) -> a +. l.Exec.grid) 0.0
            r.Exec.launches)
    in
    (count, !blocks)
  in
  let l32, b32 = lowered 32 and l64, b64 = lowered 64 in
  Alcotest.(check bool) "more blocks at n=64" true (b64 > b32 && b32 > 1.0);
  Alcotest.(check bool) "something lowered" true (l32 > 0);
  Alcotest.(check int) "-j2 lowers once, whatever the block count" l32 l64;
  Alcotest.(check int) "double-buffered phases lower the same nodes" l32
    (fst (lowered ~double_buffer:true 64))

(* minor words the calling domain allocates over one [Seq] [Full]
   [Exec.run] of [c]'s kernel on a memory built (and its local windows
   grown) beforehand, and the accesses the run makes *)
let seq_run_words c =
  let t = Option.get c.Pipeline.tiled and plan = Option.get c.Pipeline.plan in
  let prog = t.Pipeline.tiled_prog in
  let param_env name = Alcotest.failf "unbound parameter %s" name in
  let memory = Memory.create prog ~param_env in
  List.iter (fun (b : Plan.buffered) ->
    Memory.declare_local memory b.Plan.buffer.Alloc.local_name)
    plan.Plan.buffered;
  let run () =
    Exec.run ~prog ~local_ref:(Plan.local_ref plan) ~param_env ~memory
      ~mode:Exec.Full t.Pipeline.ast
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  let c = r.Exec.totals in
  (words, c.Exec.g_ld +. c.Exec.g_st +. c.Exec.s_ld +. c.Exec.s_st)

(* an access allocates nothing: what a run allocates (lowering, the
   frame) does not grow with the accesses it makes *)
let test_seq_run_allocation () =
  List.iter (fun (name, small, large) ->
    let w1, a1 = seq_run_words (compiled small)
    and w2, a2 = seq_run_words (compiled large) in
    Alcotest.(check bool) (name ^ ": more accesses") true (a2 > a1);
    let per_access = (w2 -. w1) /. (a2 -. a1) in
    Alcotest.(check bool)
      (Printf.sprintf
         "%s: %.0f -> %.0f words over %.0f -> %.0f accesses (%.4f per added \
          access)"
         name w1 w2 a1 a2 per_access)
      true (per_access < 0.01))
    [ ("matmul", Emsc_kernels.Matmul.job ~n:28 (),
       Emsc_kernels.Matmul.job ~n:64 ());
      ("me", Emsc_kernels.Me.job ~ni:24 ~nj:24 (), Emsc_kernels.Me.job ()) ]

(* --- the one schedule ------------------------------------------------------ *)

module Prof = Emsc_obs.Prof
module Rr = Emsc_obs.Runtime_report

(* (launch, block) -> worker track of every block span among [roots],
   sorted *)
let recorded_blocks roots =
  let int_arg k (n : Prof.node) =
    match List.assoc_opt k n.Prof.args with
    | Some (Emsc_obs.Json.Int i) -> i
    | _ -> Alcotest.failf "span %s lacks arg %s" n.Prof.name k
  in
  List.concat_map
    (fun (root : Prof.node) ->
      if root.Prof.name <> "runtime.worker" then []
      else
        List.filter_map
          (fun (n : Prof.node) ->
            if n.Prof.name = "block" then
              Some
                ( (int_arg "launch" n, int_arg "block" n),
                  Printf.sprintf "worker%d" (int_arg "worker" root) )
            else None)
          root.Prof.children)
    roots
  |> List.sort compare

(* run with the timeline recorded at [jobs], check arrays and totals
   against [seq], and check that each block of each launch left exactly
   one block span, on worker [worker_of block] *)
let check_schedule ~jobs ~grid ~worker_of c seq =
  let (_, r as par), roots = Prof.collect (fun () -> simulate_par ~jobs c) in
  check_same c.Pipeline.prog seq par;
  Alcotest.(check (list (float 0.0))) "stated grid" [ float_of_int grid ]
    (grids r);
  let expected =
    List.init grid (fun b ->
      ((0, b), Printf.sprintf "worker%d" (worker_of b)))
  in
  Alcotest.(check (list (pair (pair int int) string)))
    "one block span per (launch, block), on its worker" expected
    (recorded_blocks roots)

(* matmul n=32 has one launch of 4 blocks, not a multiple of 3: with
   single-block chains, block i runs on worker (i mod 3) *)
let test_static_schedule_places_blocks () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  check_schedule ~jobs:3 ~grid:4 ~worker_of:(fun b -> b mod 3) c
    (simulate_seq c)

(* conv2d n=32 with 8x8 blocks: one launch of 4 x 4 blocks; each run of
   4 consecutive blocks along the inner origin is one residency chain,
   so block b belongs to chain b / 4 and runs on worker (b / 4) mod 3 *)
let test_chain_schedule_places_blocks () =
  let c = compiled (conv2d_block_job ~inter_tile_reuse:true ()) in
  check_schedule ~jobs:3 ~grid:16 ~worker_of:(fun b -> b / 4 mod 3) c
    (simulate_seq c)

(* --- pipeline splitter --------------------------------------------------- *)

let cref a = { Ast.array = a; indices = [| Ast.Const Zint.zero |] }
let copy_in = Ast.Copy { dst = cref "l_a"; src = cref "A" }
let copy_out = Ast.Copy { dst = cref "A"; src = cref "l_a" }
let call = Ast.Stmt_call { stmt_id = 1; iter_args = [||] }

let test_pipeline_phases_split () =
  let body = [ copy_in; Ast.Fence; call; Ast.Fence; copy_out ] in
  match Runtime.pipeline_phases body with
  | Some (ins, core, outs) ->
    (* fences travel with their movement phase so the three pieces
       re-concatenate to the original body — phase counter sums equal
       the unsplit execution *)
    Alcotest.(check bool) "reconstructs" true (ins @ core @ outs = body);
    Alcotest.(check bool) "move-in non-empty" true (ins <> []);
    Alcotest.(check bool) "core is the call" true (List.mem call core);
    Alcotest.(check bool) "move-out non-empty" true (outs <> [])
  | None -> Alcotest.fail "canonical body did not split"

let test_pipeline_phases_refuses_non_canonical () =
  Alcotest.(check bool) "no fences -> no pipeline" true
    (Runtime.pipeline_phases [ copy_in; call; copy_out ] = None);
  Alcotest.(check bool) "compute before fence -> no pipeline" true
    (Runtime.pipeline_phases [ call; Ast.Fence; call ] = None)

(* --- double-buffer capacity rule (satellite 1) --------------------------- *)

let no_params _ = failwith "no parameters"

let fig1_plan () =
  Plan.plan_block ~arch:`Cell ~merge_per_array:true
    Emsc_kernels.Fig1.program

let test_effective_smem_helpers () =
  Alcotest.(check int) "single" 100
    (Hierarchy.effective_words ~double_buffer:false 100);
  Alcotest.(check int) "double" 200
    (Hierarchy.effective_words ~double_buffer:true 100);
  let plan = fig1_plan () in
  let fp = Zint.to_int_exn (Plan.total_footprint plan no_params) in
  Alcotest.(check (option int)) "plan bytes" (Some (2 * fp * 4))
    (Timing.plan_smem_bytes ~double_buffer:true ~word_bytes:4 plan no_params)

(* a plan that fits single-buffered but not double-buffered must fail
   the capacity invariant exactly when double_buffer is set *)
let test_double_buffer_capacity_regression () =
  let plan = fig1_plan () in
  let fp = Zint.to_int_exn (Plan.total_footprint plan no_params) in
  Alcotest.(check bool) "plan has a footprint" true (fp > 0);
  let cap = (2 * fp) - 1 in
  let capacity_violations ~double_buffer =
    List.filter (fun v -> v.Emsc_check.Invariants.invariant = "capacity")
      (Emsc_check.Invariants.check ~capacity_words:cap ~double_buffer
         ~env:no_params plan)
  in
  Alcotest.(check int) "fits single-buffered" 0
    (List.length (capacity_violations ~double_buffer:false));
  Alcotest.(check int) "exceeds double-buffered" 1
    (List.length (capacity_violations ~double_buffer:true))

(* --- runtime timeline integration ----------------------------------------- *)

(* instrumentation must be observationally free: a pipelined run with
   its timeline recorded stays bit-identical to sequential, and the
   report it yields is
   internally consistent (every block accounted for, measured overlap
   within the model bound) *)
let test_events_on_bit_identical_with_report () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  let par, report =
    Runner.with_runtime_report (fun () ->
      simulate_par ~double_buffer:true ~jobs:3 c)
  in
  check_same c.Pipeline.prog seq par;
  match report with
  | None -> Alcotest.fail "instrumented parallel run produced no report"
  | Some r ->
    Alcotest.(check int) "one stat per worker domain" 3
      (List.length r.Rr.domains);
    let blocks =
      List.fold_left (fun a d -> a + d.Rr.d_blocks) 0 r.Rr.domains
    in
    let _, r_par = par in
    let grid_blocks =
      List.fold_left
        (fun a (l : Exec.launch) -> a + int_of_float l.Exec.grid)
        0 r_par.Exec.launches
    in
    Alcotest.(check int) "every block left a compute event" grid_blocks
      blocks;
    Alcotest.(check bool) "staged words were counted" true
      (r.Rr.dma_words > 0.0);
    Alcotest.(check bool) "the arena pool was sampled" true
      (r.Rr.occupancy <> [] && r.Rr.occupancy_peak_arenas > 0);
    Alcotest.(check bool) "window covers the busy time" true
      (r.Rr.window_s > 0.0 && r.Rr.compute_busy_s <= r.Rr.window_s *. 3.0);
    Alcotest.(check bool) "critical path within the window" true
      (r.Rr.critical_path_s <= r.Rr.window_s +. 1e-9);
    (* the acceptance gate: achieved overlap never exceeds the bound *)
    let a = Emsc_audit.Overlap.audit ~double_buffer:true r in
    Alcotest.(check bool) "overlap audit not failing" true
      (Emsc_audit.Overlap.ok a)

(* with probes off the runtime records nothing at all — no span, no
   frame, no value — and runs the plain path *)
let test_events_off_leaves_no_tracks () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:16 ()) in
  (* the same crew first runs with the timeline on *)
  ignore
    (Runner.with_runtime_report (fun () ->
       simulate_par ~double_buffer:true ~jobs:2 c));
  let was_on = Prof.enabled () in
  Prof.disable ();
  Fun.protect ~finally:(fun () -> if was_on then Prof.enable ()) @@ fun () ->
  let seq = simulate_seq c in
  let roots = List.length (Prof.roots ()) and frames = Prof.snapshot () in
  let values = List.length (Prof.values ()) in
  check_same c.Pipeline.prog seq (simulate_par ~double_buffer:true ~jobs:2 c);
  Alcotest.(check int) "no span recorded" roots (List.length (Prof.roots ()));
  Alcotest.(check bool) "no frame recorded" true (frames = Prof.snapshot ());
  Alcotest.(check int) "no value recorded" values (List.length (Prof.values ()))

(* [emsc profile --runtime] calls [with_runtime_report] inside its own
   Prof session: the session's compile frames must survive, and with
   the span tree off repeated calls must retain no span *)
let test_report_inside_session () =
  let was_on = Prof.enabled () in
  Prof.reset ();
  Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was_on then Prof.disable ();
      Prof.reset ())
  @@ fun () ->
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let compile_frames () =
    List.filter_map
      (fun (f : Prof.frame) ->
        match f.Prof.f_stack with
        | root :: _ when String.starts_with ~prefix:"driver." root ->
          Some (f.Prof.f_stack, f.Prof.f_calls, f.Prof.f_total_s)
        | _ -> None)
      (Prof.snapshot ())
  in
  let before = compile_frames () in
  Alcotest.(check bool) "the session has compile frames" true (before <> []);
  for k = 1 to 3 do
    let _, report =
      Runner.with_runtime_report (fun () ->
        simulate_par ~double_buffer:true ~jobs:2 c)
    in
    Alcotest.(check bool) (Printf.sprintf "report %d" k) true (report <> None);
    Alcotest.(check int) (Printf.sprintf "no span retained after %d" k) 0
      (List.length (Prof.roots ()));
    Alcotest.(check bool) "probes still on" true (Prof.enabled ())
  done;
  let stacks = List.map (fun (st, _, _) -> st) before in
  Alcotest.(check bool) "compile frames intact" true
    (before
     = List.filter (fun (st, _, _) -> List.mem st stacks) (compile_frames ()))

(* --- lanes: reuse, retirement, failure, concurrency ----------------------- *)

let run_par ?on_global ?(jobs = 2) c =
  Runner.simulate ~memory:Runner.Pseudorandom ?on_global ~backend:(`Par jobs)
    ~double_buffer:true c

(* live lanes once every idle domain has had time to retire *)
let lanes_after_retirement () =
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Lane.live () > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf Lane.linger_s
  done;
  Lane.live ()

(* K back-to-back double-buffered -j2 runs of matmul n=32 (4 blocks, so
   both workers and both DMA lanes get work) spawn one crew: 4 domains,
   where one crew per run would spawn 4K.  A trial starts with every
   lane retired.  A scheduling stall longer than the linger between two
   runs retires a lane, and the next run respawns it; such a trial is
   repeated, up to three in all. *)
let test_lanes_reused_across_runs () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let k = 8 in
  let trial () =
    Alcotest.(check int) "no lane alive before the trial" 0
      (lanes_after_retirement ());
    prof_counter "runtime.domain_spawns" (fun () ->
      for _ = 1 to k do
        ignore (run_par c)
      done)
  in
  let rec trials acc =
    let s = trial () in
    if s = 4 || List.length acc = 2 then List.rev (s :: acc)
    else trials (s :: acc)
  in
  let counts = trials [] in
  Alcotest.(check int)
    (Printf.sprintf "%d runs spawn 4 domains (trials: %s)" k
       (String.concat ", " (List.map string_of_int counts)))
    4
    (List.nth counts (List.length counts - 1));
  Unix.sleepf Lane.linger_s;
  Alcotest.(check int) "idle lanes retire" 0 (lanes_after_retirement ())

(* the DMA lanes' tallies are recorded once, per channel: the
   [runtime.run] frame reads their sum and the Metrics view reads each
   channel, and the two agree *)
let test_dma_words_in_both_views () =
  let module P = Emsc_obs.Prof in
  let module M = Emsc_obs.Metrics in
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  P.reset ();
  P.enable ();
  Fun.protect ~finally:(fun () -> P.disable (); P.reset ()) @@ fun () ->
  ignore (run_par c);
  let name = "runtime.dma.move_in_words" in
  let in_frames =
    List.fold_left (fun acc (fr : P.frame) ->
      if List.nth fr.P.f_stack (List.length fr.P.f_stack - 1) = "runtime.run"
      then acc +. Option.value ~default:0.0 (List.assoc_opt name fr.P.f_counters)
      else acc)
      0.0 (P.snapshot ())
  in
  let per_channel =
    List.filter_map (fun (s : M.sample) ->
      match s.M.m_value with
      | M.Counter v when s.M.m_name = name -> Some v
      | _ -> None)
      (M.snapshot ()).M.samples
  in
  Alcotest.(check int) "one sample per channel" 2 (List.length per_channel);
  Alcotest.(check bool) "words moved" true (in_frames > 0.0);
  Alcotest.(check (float 0.0)) "frame = sum over channels" in_frames
    (List.fold_left ( +. ) 0.0 per_channel)

(* the staged words of a DMA span are a counter of the span only: the
   registry carries them in [runtime.dma.move_in_words] and
   [move_out_words] (which also count the words a block's compute
   phase stages), not a second time as a bare [words] value *)
let test_dma_words_on_spans_only () =
  let module P = Emsc_obs.Prof in
  let module M = Emsc_obs.Metrics in
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  P.reset ();
  Fun.protect ~finally:(fun () -> P.reset ()) @@ fun () ->
  let _, roots = P.collect (fun () -> run_par c) in
  let rec on_spans name acc (n : P.node) =
    let acc =
      if n.P.name = name then
        acc +. Option.value ~default:0.0 (List.assoc_opt "words" n.P.counters)
      else acc
    in
    List.fold_left (on_spans name) acc n.P.children
  in
  let spans name = List.fold_left (on_spans name) 0.0 roots in
  let snap = M.snapshot () in
  let registry name =
    List.fold_left (fun acc (s : M.sample) ->
      match s.M.m_value with
      | M.Counter v when s.M.m_name = name -> acc +. v
      | _ -> acc)
      0.0 snap.M.samples
  in
  Alcotest.(check bool) "no bare words value" true
    (List.for_all (fun (s : M.sample) -> s.M.m_name <> "words") snap.M.samples);
  List.iter (fun (span, name) ->
    Alcotest.(check bool) (span ^ " spans carry words") true
      (spans span > 0.0);
    Alcotest.(check bool) (span ^ " words within " ^ name) true
      (spans span <= registry name))
    [ ("dma-in", "runtime.dma.move_in_words");
      ("dma-out", "runtime.dma.move_out_words") ]

(* block i of a 4-block launch evaluates a guard [2^61 * i >= 0], whose
   checked arithmetic overflows for i >= 2: a Failure raised inside a
   worker job, on both workers at -j2 *)
let overflow_prog =
  let np = 0 in
  let w = Prog.mk_access ~array:"A" ~kind:Prog.Write ~rows:[ [ 1; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"S_overflow" ~np ~depth:1 ~iter_names:[| "i" |]
      ~domain:(Build.box_domain ~np [ (0, 3) ])
      ~writes:[ w ] ~reads:[] ~body:(w, Prog.Econst 1.0) ~beta:[ 0; 0 ] ()
  in
  { Prog.params = [||]; arrays = [ Build.array1 "A" 8 ~np ]; stmts = [ s ] }

let overflow_ast =
  [ Ast.Loop
      { Ast.var = "i"; lb = Ast.Const Zint.zero;
        ub = Ast.Const (Zint.of_int 3); step = Zint.one; par = Ast.Block;
        body =
          [ Ast.Guard
              ( [ Ast.Mul (Zint.shift_left Zint.one 61, Ast.Var "i") ],
                [ Ast.Stmt_call { stmt_id = 1; iter_args = [| Ast.Var "i" |] }
                ] ) ] } ]

(* a run that raises leaves its crew idle and usable: a worker job's
   checked-arithmetic Failure, the tracker's race, and a raising
   [on_global] hook part-way through a double-buffered run (in a DMA
   job or a compute phase); after each, a run on the same crew is
   bit-identical to sequential execution, and none of the failed run's
   queued jobs runs after it returned *)
let test_failed_run_leaves_crew_usable () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  let next_run_exact ?(jobs = 2) () =
    check_same c.Pipeline.prog seq (simulate_par ~double_buffer:true ~jobs c)
  in
  (match Runner.execute ~prog:overflow_prog ~backend:(`Par 2) overflow_ast with
   | _ -> Alcotest.fail "index overflow went unnoticed"
   | exception Failure msg ->
     Alcotest.(check string) "checked arithmetic"
       "Exec: integer overflow in index arithmetic" msg);
  next_run_exact ();
  (match
     Runner.execute ~prog:racy_prog ~backend:(`Par 2) ~track_ownership:true
       racy_ast
   with
   | _ -> Alcotest.fail "write-write race went undetected"
   | exception Runtime.Ownership_violation _ -> ());
  next_run_exact ();
  List.iter
    (fun jobs ->
      let calls = ref 0 in
      let on_global _ _ _ =
        incr calls;
        if !calls = 1000 then raise Exit
      in
      (match run_par ~on_global ~jobs c with
       | _ -> Alcotest.fail "the hook's exception was lost"
       | exception Exit -> ());
      let at_return = !calls in
      next_run_exact ~jobs ();
      Alcotest.(check int) "no job of the failed run ran after it returned"
        at_return !calls)
    [ 1; 2 ]

(* two domains running -j2 at once each hold a crew of their own *)
let test_concurrent_runs () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let seq = simulate_seq c in
  let callers =
    Array.init 2 (fun _ ->
      Domain.spawn (fun () ->
        List.init 4 (fun _ -> simulate_par ~double_buffer:true ~jobs:2 c)))
  in
  Array.iter
    (fun d -> List.iter (check_same c.Pipeline.prog seq) (Domain.join d))
    callers

(* the resident set stays flat in the number of runs: the high-water
   mark after N runs and after 4N more differ by less than 3 MiB (under
   30 KB a run).  Linux only: elsewhere there is no /proc/self/status. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> Some kb
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ())
      | exception End_of_file -> None
    in
    let kb = find () in
    close_in ic;
    kb

let test_rss_flat_in_runs () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:32 ()) in
  let runs k =
    for _ = 1 to k do
      ignore (run_par c)
    done
  in
  let n = 25 in
  runs n;
  match vm_hwm_kb () with
  | None -> ()
  | Some h1 ->
    runs (4 * n);
    let h2 = Option.get (vm_hwm_kb ()) in
    Alcotest.(check bool)
      (Printf.sprintf "VmHWM %d kB after %d runs, %d kB after %d more" h1 n
         h2 (4 * n))
      true
      (h2 - h1 < 3 * 1024)

(* --- oracle backend plumbing --------------------------------------------- *)

let test_oracle_parallel_backend () =
  let c = compiled (Emsc_kernels.Matmul.job ~n:16 ()) in
  (match Emsc_check.Oracle.check_compiled ~backend:(`Par 3)
           ~param_env:Runner.no_params c
   with
   | Ok () -> ()
   | Error r -> Alcotest.failf "parallel oracle failed: %s" r)

let () =
  Alcotest.run "runtime"
    [ ( "parallel-vs-sequential",
        [ Alcotest.test_case "matmul" `Quick test_par_matches_seq_matmul;
          Alcotest.test_case "me" `Quick test_par_matches_seq_me;
          Alcotest.test_case "policies+double-buffer" `Quick
            test_static_with_and_without_double_buffer;
          Alcotest.test_case "totals invariant in -j" `Quick
            test_totals_invariant_in_jobs;
          Alcotest.test_case "stencil multi-launch" `Quick
            test_stencil_multi_launch;
          Alcotest.test_case "triangle tiled = reference" `Quick
            test_triangle_tiled_matches_reference ] );
      ( "ownership",
        [ Alcotest.test_case "tracker catches race" `Quick
            test_tracker_catches_race;
          Alcotest.test_case "tracker off by default" `Quick
            test_tracker_off_by_default ] );
      ( "arena",
        [ Alcotest.test_case "idempotent release + peaks" `Quick
            test_arena_release_idempotent_and_peak;
          Alcotest.test_case "occupancy cap" `Quick
            test_arena_blocks_then_proceeds;
          Alcotest.test_case "fork-failure hammer" `Quick
            test_arena_fork_failure_hammer ] );
      ( "inter-tile-reuse",
        [ Alcotest.test_case "bit-identical + strictly fewer loads" `Quick
            test_inter_tile_matches_seq_and_moves_less ] );
      ( "golden",
        [ Alcotest.test_case "executor digest" `Quick test_executor_golden ] );
      ( "lowering",
        [ Alcotest.test_case "once per session" `Quick
            test_lowered_once_per_session;
          Alcotest.test_case "runtime lowers once" `Quick
            test_runtime_lowers_once;
          Alcotest.test_case "seq run allocates nothing per access" `Quick
            test_seq_run_allocation ] );
      ( "schedule",
        [ Alcotest.test_case "block i on worker i mod 3" `Quick
            test_static_schedule_places_blocks;
          Alcotest.test_case "chain c on worker c mod 3" `Quick
            test_chain_schedule_places_blocks ] );
      ( "pipeline",
        [ Alcotest.test_case "splits canonical body" `Quick
            test_pipeline_phases_split;
          Alcotest.test_case "refuses non-canonical" `Quick
            test_pipeline_phases_refuses_non_canonical ] );
      ( "capacity",
        [ Alcotest.test_case "effective smem helpers" `Quick
            test_effective_smem_helpers;
          Alcotest.test_case "double-buffer regression" `Quick
            test_double_buffer_capacity_regression ] );
      ( "events",
        [ Alcotest.test_case "on: bit-identical + report" `Quick
            test_events_on_bit_identical_with_report;
          Alcotest.test_case "off: no tracks" `Quick
            test_events_off_leaves_no_tracks;
          Alcotest.test_case "report inside a Prof session" `Quick
            test_report_inside_session ] );
      ( "lanes",
        [ Alcotest.test_case "reused across runs, retired when idle" `Quick
            test_lanes_reused_across_runs;
          Alcotest.test_case "failed run leaves crew usable" `Quick
            test_failed_run_leaves_crew_usable;
          Alcotest.test_case "concurrent runs" `Quick test_concurrent_runs;
          Alcotest.test_case "dma words in both views" `Quick
            test_dma_words_in_both_views;
          Alcotest.test_case "dma words on spans only" `Quick
            test_dma_words_on_spans_only;
          Alcotest.test_case "resident set flat in runs" `Quick
            test_rss_flat_in_runs ] );
      ( "oracle",
        [ Alcotest.test_case "parallel backend" `Quick
            test_oracle_parallel_backend ] ) ]
