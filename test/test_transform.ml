(* Transform + machine integration: hyperplane search finds the
   expected bands, unimodular re-indexing preserves semantics, and the
   fully tiled + scratchpad-buffered kernels compute exactly what the
   reference executor computes. *)

open Emsc_arith
open Emsc_linalg
open Emsc_ir
open Emsc_core
open Emsc_codegen
open Emsc_transform
open Emsc_machine
open Emsc_kernels

let no_params name = failwith ("unexpected parameter " ^ name)

let vi = Vec.of_ints

(* --- hyperplane search ---------------------------------------------------- *)

let test_matmul_band () =
  let p = Matmul.program ~n:8 in
  let deps = Deps.analyze p in
  let band = Hyperplanes.find_band p deps in
  Alcotest.(check int) "full band" 3 (List.length band.Hyperplanes.hyperplanes);
  Alcotest.(check (list bool)) "two parallel + one sequential"
    [ true; true; false ]
    band.Hyperplanes.parallel;
  (* the parallel ones are i and j *)
  let par_planes =
    List.filteri (fun i _ -> List.nth band.Hyperplanes.parallel i)
      band.Hyperplanes.hyperplanes
  in
  List.iter (fun h ->
    Alcotest.(check bool) "axis hyperplane" true
      (Vec.equal h (vi [ 1; 0; 0 ]) || Vec.equal h (vi [ 0; 1; 0 ])))
    par_planes

let test_jacobi_band () =
  let p = Jacobi1d.program_expanded ~n:20 ~steps:6 in
  let deps = Deps.analyze p in
  let band = Hyperplanes.find_band p deps in
  Alcotest.(check int) "two hyperplanes" 2
    (List.length band.Hyperplanes.hyperplanes);
  Alcotest.(check (list bool)) "none parallel" [ false; false ]
    band.Hyperplanes.parallel;
  List.iter (fun h ->
    Alcotest.(check bool) "skewed family" true
      (Vec.equal h (vi [ 1; 0 ]) || Vec.equal h (vi [ 1; 1 ])
       || Vec.equal h (vi [ 1; -1 ])))
    band.Hyperplanes.hyperplanes;
  match Hyperplanes.transform_matrix band ~depth:2 with
  | None -> Alcotest.fail "expected a unimodular transform"
  | Some u -> Alcotest.(check bool) "unimodular" true
      (Zint.is_one (Zint.abs (Mat.det u)))

let test_me_space_loops () =
  let p = Me.program ~ni:6 ~nj:6 ~ws:3 in
  let deps = Deps.analyze p in
  let band = Hyperplanes.find_band p deps in
  let parallel_count =
    List.length (List.filter (fun b -> b) band.Hyperplanes.parallel)
  in
  Alcotest.(check int) "i and j are space loops" 2 parallel_count

let test_jacobi_copyback_band () =
  (* the two-statement copy-back form only admits the time hyperplane *)
  let p = Jacobi1d.program ~n:16 ~steps:4 in
  let deps = Deps.analyze p in
  let band = Hyperplanes.find_band p deps in
  Alcotest.(check int) "only (1,0) survives" 1
    (List.length band.Hyperplanes.hyperplanes);
  Alcotest.(check bool) "it is the time axis" true
    (Vec.equal (List.hd band.Hyperplanes.hyperplanes) (vi [ 1; 0 ]))

(* The band and parallel flags chosen for every suite kernel, one line
   each: "name: h1 flag1; h2 flag2; ..." with P for communication-free
   and S for sequential.  How legality, parallelism and cost are
   solved may change; the chosen bands may not. *)
let expected_suite_bands =
  [ "fig1: none";
    "matmul-n32: (0,1,0) P; (1,0,0) P; (0,0,1) S";
    "me-32x32-ws8-t8.8.8.8: (0,1,0,0) P; (1,0,0,0) P; (0,0,1,0) S";
    "jacobi1d-n64-s8: (1,0) S; (1,-1) S";
    "conv2d-n16-k3: (0,1,0,0) P; (1,0,0,0) P; (0,0,1,0) S";
    "doitgen-8x8x16: (0,0,1,0) P; (0,1,0,0) P; (1,0,0,0) P; (0,0,0,1) S" ]

let test_suite_bands () =
  let open Emsc_driver in
  let render (b : Hyperplanes.band) =
    List.map2 (fun h par ->
      Printf.sprintf "(%s) %s"
        (String.concat "," (List.map string_of_int (Vec.to_ints_exn h)))
        (if par then "P" else "S"))
      b.Hyperplanes.hyperplanes b.Hyperplanes.parallel
    |> String.concat "; "
  in
  let got =
    List.map2 (fun name (job : Pipeline.job) ->
      let options = { job.Pipeline.options with Options.stop = Options.Band } in
      match Pipeline.compile ~cache:Cache.off { job with Pipeline.options } with
      | Ok c ->
        name ^ ": "
        ^ (match c.Pipeline.band with Some b -> render b | None -> "none")
      | Error e -> Alcotest.failf "%s: %s" name (Frontend.error_message e))
      (Suite.names ()) (Suite.jobs ())
  in
  Alcotest.(check (list string)) "suite bands" expected_suite_bands got

(* --- unimodular application ----------------------------------------------- *)

let test_apply_unimodular_semantics () =
  let p = Jacobi1d.program_expanded ~n:14 ~steps:5 in
  let u = Mat.of_ints [ [ 1; 0 ]; [ 1; 1 ] ] in
  let p' = Tile.apply_unimodular p u in
  (match Prog.validate p' with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let init _ = Random.float 1.0 in
  Random.init 42;
  let m1 = Memory.create p ~param_env:no_params in
  Memory.fill m1 "a" (fun idx -> if idx.(0) = 0 then init idx else 0.0);
  Random.init 42;
  let m2 = Memory.create p' ~param_env:no_params in
  Memory.fill m2 "a" (fun idx -> if idx.(0) = 0 then init idx else 0.0);
  let (_ : Exec.counters) = Reference.run p ~param_env:no_params m1 () in
  let (_ : Exec.counters) = Reference.run p' ~param_env:no_params m2 () in
  Alcotest.(check bool) "same result after skewing" true
    (Memory.arrays_equal m1 m2 "a")

(* --- tile-block program & buffers ------------------------------------------ *)

let mm_spec =
  [| { Tile.block = Some 8; mem = None; thread = Some 2 };
     { Tile.block = Some 8; mem = None; thread = Some 4 };
     { Tile.block = None; mem = Some 4; thread = None } |]

let test_tile_program_buffers () =
  let p = Matmul.program ~n:16 in
  let tp = Tile.tile_program p mm_spec in
  (match Prog.validate tp with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "origin params" [ "iT"; "jT"; "kM" ]
    (Array.to_list tp.Prog.params);
  let plan =
    Plan.plan_block ~arch:`Cell ~param_context:(Tile.origin_context p mm_spec)
      tp
  in
  let find name =
    (List.find (fun (b : Plan.buffered) ->
       b.Plan.buffer.Alloc.array = name)
       plan.Plan.buffered)
      .Plan.buffer
  in
  let sizes buf =
    Array.to_list
      (Array.map (fun e -> Zint.to_int_exn (Ast.eval no_params e))
         (Alloc.size_exprs buf))
  in
  ignore sizes;
  (* extents must be tile-local: A tile is 8 x 4, B is 4 x 8, C is 8 x 8 *)
  let const_sizes buf =
    Array.to_list
      (Array.map
         (fun e ->
           match Ast.simplify e with
           | Ast.Const c -> Zint.to_int_exn c
           | _ -> Alcotest.fail "size should be constant")
         (Alloc.size_exprs buf))
  in
  Alcotest.(check (list int)) "l_A is 8x4" [ 8; 4 ] (const_sizes (find "A"));
  Alcotest.(check (list int)) "l_B is 4x8" [ 4; 8 ] (const_sizes (find "B"));
  Alcotest.(check (list int)) "l_C is 8x8" [ 8; 8 ] (const_sizes (find "C"))

(* --- end-to-end: tiled + buffered kernels vs reference --------------------- *)

let run_pipeline ?(arch = `Cell) p spec ~init =
  let tp = Tile.tile_program p spec in
  let ctx = Tile.origin_context p spec in
  let plan = Plan.plan_block ~arch ~param_context:ctx tp in
  let movement =
    List.map (fun (b : Plan.buffered) -> (b.Plan.move_in, b.Plan.move_out))
      plan.Plan.buffered
  in
  let ast = Tile.generate p spec ~movement in
  (* reference *)
  let m_ref = Memory.create p ~param_env:no_params in
  List.iter (fun (name, f) -> Memory.fill m_ref name f) init;
  let (_ : Exec.counters) = Reference.run p ~param_env:no_params m_ref () in
  (* tiled execution *)
  let m_gpu = Memory.create p ~param_env:no_params in
  List.iter (fun (name, f) -> Memory.fill m_gpu name f) init;
  List.iter (fun (b : Plan.buffered) ->
    Memory.declare_local m_gpu b.Plan.buffer.Alloc.local_name)
    plan.Plan.buffered;
  let result =
    Exec.run ~prog:tp
      ~local_ref:(Plan.local_ref plan)
      ~param_env:no_params ~memory:m_gpu ~mode:Exec.Full ast
  in
  (m_ref, m_gpu, result, plan)

let test_tiled_matmul_correct () =
  let n = 16 in
  let p = Matmul.program ~n in
  let init =
    [ ("A", fun idx -> float_of_int (((idx.(0) * 7) + idx.(1)) mod 13));
      ("B", fun idx -> float_of_int (((idx.(0) * 3) + (idx.(1) * 5)) mod 11));
      ("C", fun _ -> 0.0) ]
  in
  let m_ref, m_gpu, result, _ = run_pipeline p mm_spec ~init in
  Alcotest.(check bool) "C matches reference" true
    (Memory.arrays_equal m_ref m_gpu "C");
  (* with full buffering, compute touches no global memory: all global
     traffic comes from the movement code *)
  Alcotest.(check bool) "some smem traffic" true
    (Exec.total_smem result.Exec.totals > 0.0);
  Alcotest.(check bool) "launches recorded" true
    (List.length result.Exec.launches >= 1)

let test_tiled_matmul_reduces_traffic () =
  let n = 16 in
  let p = Matmul.program ~n in
  let init = [ ("A", (fun _ -> 1.0)); ("B", (fun _ -> 2.0)); ("C", fun _ -> 0.0) ] in
  let _, _, with_smem, _ = run_pipeline p mm_spec ~init in
  (* DRAM-only version: same tiling, no buffering *)
  let tp = Tile.tile_program p mm_spec in
  let ast = Tile.generate p mm_spec ~movement:[] in
  let m = Memory.create p ~param_env:no_params in
  List.iter (fun (name, f) -> Memory.fill m name f) init;
  let dram =
    Exec.run ~prog:tp ~param_env:no_params ~memory:m ~mode:Exec.Full ast
  in
  let g1 = Exec.total_global with_smem.Exec.totals in
  let g2 = Exec.total_global dram.Exec.totals in
  Alcotest.(check bool)
    (Printf.sprintf "global traffic shrinks (%.0f < %.0f)" g1 g2)
    true (g1 < g2 /. 4.0)

let me_spec =
  [| { Tile.block = Some 8; mem = None; thread = Some 2 };
     { Tile.block = Some 8; mem = None; thread = Some 4 };
     Tile.no_tiling; Tile.no_tiling |]

let test_tiled_me_correct () =
  let p = Me.program ~ni:16 ~nj:16 ~ws:4 in
  let init =
    [ ("cur", fun idx -> float_of_int (((idx.(0) * 5) + idx.(1)) mod 17));
      ("refb", fun idx -> float_of_int (((idx.(0) * 2) + idx.(1)) mod 7));
      ("sad", fun _ -> 0.0) ]
  in
  let m_ref, m_gpu, _, plan = run_pipeline p me_spec ~init in
  Alcotest.(check bool) "sad matches reference" true
    (Memory.arrays_equal m_ref m_gpu "sad");
  (* ME buffers: sad is beneficial (rank), cur is beneficial (rank),
     refb is beneficial (rank: k,l only, 2 < 4) *)
  Alcotest.(check int) "three buffers" 3 (List.length plan.Plan.buffered)

let test_me_gpu_arch_buffers () =
  let p = Me.program ~ni:16 ~nj:16 ~ws:4 in
  let tp = Tile.tile_program p me_spec in
  let plan =
    Plan.plan_block ~arch:`Gpu ~param_context:(Tile.origin_context p me_spec)
      tp
  in
  Alcotest.(check int) "all partitions beneficial on GPU too" 3
    (List.length plan.Plan.buffered)

(* movement hoisting: with k mem-tiled in matmul, l_C's movement must
   sit outside the kM loop while l_A's sits inside *)
let test_movement_hoisting () =
  let p = Matmul.program ~n:16 in
  let tp = Tile.tile_program p mm_spec in
  let plan =
    Plan.plan_block ~arch:`Cell ~param_context:(Tile.origin_context p mm_spec)
      tp
  in
  let movement =
    List.map (fun (b : Plan.buffered) -> (b.Plan.move_in, b.Plan.move_out))
      plan.Plan.buffered
  in
  let ast = Tile.generate p mm_spec ~movement in
  (* find the kM loop and check which buffers are copied inside it *)
  let copies_into_local_inside_km = ref [] in
  let copies_into_local_outside_km = ref [] in
  let rec walk inside_km (s : Ast.stm) =
    match s with
    | Ast.Loop l ->
      let inside = inside_km || l.Ast.var = "kM" in
      List.iter (walk inside) l.Ast.body
    | Ast.Guard (_, body) -> List.iter (walk inside_km) body
    | Ast.Copy { dst; _ } when String.length dst.Ast.array > 2
                               && String.sub dst.Ast.array 0 2 = "l_" ->
      if inside_km then
        copies_into_local_inside_km := dst.Ast.array :: !copies_into_local_inside_km
      else
        copies_into_local_outside_km := dst.Ast.array :: !copies_into_local_outside_km
    | Ast.Copy _ | Ast.Stmt_call _ | Ast.Sync | Ast.Fence | Ast.Comment _ -> ()
  in
  List.iter (walk false) ast;
  let uniq l = List.sort_uniq compare l in
  Alcotest.(check bool) "A and B loaded inside kM" true
    (List.mem "l_A" (uniq !copies_into_local_inside_km)
     && List.mem "l_B" (uniq !copies_into_local_inside_km));
  Alcotest.(check bool) "C loaded outside kM (hoisted)" true
    (List.mem "l_C" (uniq !copies_into_local_outside_km));
  Alcotest.(check bool) "C not re-loaded inside kM" false
    (List.mem "l_C" (uniq !copies_into_local_inside_km))

(* --- sampled fidelity ------------------------------------------------------ *)

let test_sampled_counts_match () =
  (* rectangular nest: sampled counters must equal full counters *)
  let p = Matmul.program ~n:16 in
  let tp = Tile.tile_program p mm_spec in
  let plan =
    Plan.plan_block ~arch:`Cell ~param_context:(Tile.origin_context p mm_spec)
      tp
  in
  let movement =
    List.map (fun (b : Plan.buffered) -> (b.Plan.move_in, b.Plan.move_out))
      plan.Plan.buffered
  in
  let ast = Tile.generate p mm_spec ~movement in
  let mk () =
    let m = Memory.create p ~param_env:no_params in
    List.iter (fun (b : Plan.buffered) ->
      Memory.declare_local m b.Plan.buffer.Alloc.local_name)
      plan.Plan.buffered;
    m
  in
  let full =
    Exec.run ~prog:tp ~local_ref:(Plan.local_ref plan) ~param_env:no_params
      ~memory:(mk ()) ~mode:Exec.Full ast
  in
  let sampled =
    Exec.run ~prog:tp ~local_ref:(Plan.local_ref plan) ~param_env:no_params
      ~memory:(mk ()) ~mode:(Exec.Sampled 4) ast
  in
  let close a b =
    Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)
  in
  Alcotest.(check bool) "flops match" true
    (close full.Exec.totals.Exec.flops sampled.Exec.totals.Exec.flops);
  Alcotest.(check bool) "global traffic matches" true
    (close
       (Exec.total_global full.Exec.totals)
       (Exec.total_global sampled.Exec.totals));
  Alcotest.(check bool) "smem traffic matches" true
    (close (Exec.total_smem full.Exec.totals)
       (Exec.total_smem sampled.Exec.totals))

(* --- stencil: overlapped time tiling -------------------------------------- *)

let run_stencil ~n ~steps ~ts ~tt =
  let p = Jacobi1d.program ~n ~steps in
  let init = fun idx -> float_of_int ((idx.(0) * 37) mod 19) /. 19.0 in
  let m_ref = Memory.create p ~param_env:no_params in
  Memory.fill m_ref "cur" init;
  let (_ : Exec.counters) = Reference.run p ~param_env:no_params m_ref () in
  let k = Stencil.overlapped_1d ~n ~steps ~ts ~tt p in
  let m_gpu = Memory.create p ~param_env:no_params in
  Memory.fill m_gpu "cur" init;
  List.iter (Memory.declare_local m_gpu) k.Stencil.locals;
  let r =
    Exec.run ~prog:p ~local_ref:k.Stencil.local_ref ~param_env:no_params
      ~memory:m_gpu ~mode:Exec.Full k.Stencil.ast
  in
  (* compare the reference's cur against the kernel's result array *)
  let ok =
    let a = Memory.global_data m_ref "cur" in
    let b = Memory.global_data m_gpu k.Stencil.result_array in
    Array.length a = Array.length b
    && begin
      let good = ref true in
      Array.iteri (fun i x ->
        if Float.abs (x -. b.(i)) > 1e-6 *. (1.0 +. Float.abs x) then
          good := false)
        a;
      !good
    end
  in
  (m_ref, m_gpu, r, k, ok)

let test_stencil_correct () =
  let _, _, _, k, ok = run_stencil ~n:64 ~steps:17 ~ts:16 ~tt:4 in
  Alcotest.(check bool) "overlapped tiling matches reference" true ok;
  Alcotest.(check int) "time tiles" 5 k.Stencil.time_tiles;
  Alcotest.(check int) "smem words" (2 * (16 + 8)) k.Stencil.smem_words

let test_stencil_uneven () =
  (* n-2 not divisible by ts, steps not divisible by tt *)
  let _, _, _, _, ok = run_stencil ~n:47 ~steps:11 ~ts:8 ~tt:3 in
  Alcotest.(check bool) "uneven sizes still correct" true ok

let test_stencil_dram_correct () =
  let n = 40 and steps = 9 in
  let p = Jacobi1d.program ~n ~steps in
  let init = fun idx -> float_of_int ((idx.(0) * 11) mod 7) in
  let m_ref = Memory.create p ~param_env:no_params in
  Memory.fill m_ref "cur" init;
  let (_ : Exec.counters) = Reference.run p ~param_env:no_params m_ref () in
  let k = Stencil.dram_1d ~n ~steps ~ts:8 p in
  let m = Memory.create p ~param_env:no_params in
  Memory.fill m "cur" init;
  let r =
    Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full
      k.Stencil.ast
  in
  Alcotest.(check bool) "dram version correct" true
    (Memory.arrays_equal m_ref m "cur");
  Alcotest.(check bool) "many launches" true
    (List.length r.Exec.launches = 2 * steps)

let test_stencil_traffic_gap () =
  let _, _, smem_run, _, _ = run_stencil ~n:1024 ~steps:64 ~ts:64 ~tt:16 in
  let p = Jacobi1d.program ~n:1024 ~steps:64 in
  let k = Stencil.dram_1d ~n:1024 ~steps:64 ~ts:64 p in
  let m = Memory.create p ~param_env:no_params in
  let dram_run =
    Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full
      k.Stencil.ast
  in
  let g_smem = Exec.total_global smem_run.Exec.totals in
  let g_dram = Exec.total_global dram_run.Exec.totals in
  Alcotest.(check bool)
    (Printf.sprintf "global traffic gap (%.0f vs %.0f)" g_smem g_dram)
    true
    (g_smem < g_dram /. 3.0)

let prop_stencil_random =
  QCheck.Test.make ~name:"overlapped tiling correct on random shapes"
    ~count:12
    QCheck.(quad (int_range 16 70) (int_range 1 20) (int_range 4 24)
              (int_range 1 8))
    (fun (n, steps, ts, tt) ->
      let _, _, _, _, ok = run_stencil ~n ~steps ~ts ~tt in
      ok)

(* regression: a mem tile larger than its block tile must not leak
   past the block tile edge (was double-accumulating sad cells) *)
let test_mem_tile_exceeds_block () =
  let p = Matmul.program ~n:12 in
  let spec =
    [| { Tile.block = Some 4; mem = Some 8; thread = None };
       { Tile.block = Some 4; mem = Some 8; thread = None };
       { Tile.block = None; mem = Some 8; thread = None } |]
  in
  let init =
    [ ("A", fun idx -> float_of_int ((idx.(0) + (idx.(1) * 2)) mod 7));
      ("B", fun idx -> float_of_int ((idx.(0) * 3) mod 5));
      ("C", fun _ -> 0.0) ]
  in
  let m_ref, m_gpu, _, _ = run_pipeline p spec ~init in
  Alcotest.(check bool) "no leakage across block tiles" true
    (Memory.arrays_equal m_ref m_gpu "C")


(* additional kernels through the full pipeline *)
let test_tiled_conv2d_correct () =
  let p = Conv2d.program ~n:16 ~kw:3 in
  let spec =
    [| { Tile.block = Some 8; mem = None; thread = None };
       { Tile.block = Some 8; mem = None; thread = None };
       Tile.no_tiling; Tile.no_tiling |]
  in
  let init =
    [ ("img", fun idx -> float_of_int (((idx.(0) * 3) + idx.(1)) mod 11));
      ("w", fun idx -> float_of_int (1 + idx.(0) + idx.(1)));
      ("out", fun _ -> 0.0) ]
  in
  let m_ref, m_gpu, _, plan = run_pipeline p spec ~init in
  Alcotest.(check bool) "conv2d matches reference" true
    (Memory.arrays_equal m_ref m_gpu "out");
  Alcotest.(check int) "three buffers" 3 (List.length plan.Plan.buffered)

let test_tiled_doitgen_correct () =
  let p = Doitgen.program ~nr:6 ~nq:6 ~np_:8 in
  let spec =
    [| { Tile.block = Some 3; mem = None; thread = None };
       { Tile.block = Some 3; mem = None; thread = None };
       Tile.no_tiling;
       { Tile.block = None; mem = Some 4; thread = None } |]
  in
  let init =
    [ ("a3", fun idx ->
        float_of_int (((idx.(0) * 5) + (idx.(1) * 3) + idx.(2)) mod 13));
      ("c4", fun idx -> float_of_int (((idx.(0) * 2) + idx.(1)) mod 7));
      ("sum3", fun _ -> 0.0) ]
  in
  let m_ref, m_gpu, _, _ = run_pipeline p spec ~init in
  Alcotest.(check bool) "doitgen (rank-3) matches reference" true
    (Memory.arrays_equal m_ref m_gpu "sum3")

let test_conv2d_reuse_verdicts () =
  (* img slides (beneficial by rank), w is tiny but rank-deficient too *)
  let p = Conv2d.program ~n:16 ~kw:3 in
  let parts = Dataspaces.partition_all p in
  List.iter (fun (part : Dataspaces.partition) ->
    let r = Reuse.analyze p part in
    Alcotest.(check bool)
      (part.Dataspaces.array ^ " beneficial")
      true r.Reuse.beneficial)
    parts

let () =
  Alcotest.run "transform"
    [
      ( "hyperplanes",
        [
          Alcotest.test_case "matmul band" `Quick test_matmul_band;
          Alcotest.test_case "jacobi skewed band" `Quick test_jacobi_band;
          Alcotest.test_case "me space loops" `Quick test_me_space_loops;
          Alcotest.test_case "suite bands" `Quick test_suite_bands;
          Alcotest.test_case "jacobi copy-back band" `Quick
            test_jacobi_copyback_band;
        ] );
      ( "unimodular",
        [
          Alcotest.test_case "skewing preserves semantics" `Quick
            test_apply_unimodular_semantics;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "overlapped correct" `Quick test_stencil_correct;
          Alcotest.test_case "uneven sizes" `Quick test_stencil_uneven;
          Alcotest.test_case "dram baseline correct" `Quick
            test_stencil_dram_correct;
          Alcotest.test_case "traffic gap" `Quick test_stencil_traffic_gap;
          QCheck_alcotest.to_alcotest prop_stencil_random;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "tile-block buffers" `Quick
            test_tile_program_buffers;
          Alcotest.test_case "tiled matmul correct" `Quick
            test_tiled_matmul_correct;
          Alcotest.test_case "buffering cuts global traffic" `Quick
            test_tiled_matmul_reduces_traffic;
          Alcotest.test_case "tiled ME correct" `Quick test_tiled_me_correct;
          Alcotest.test_case "ME beneficial on GPU" `Quick
            test_me_gpu_arch_buffers;
          Alcotest.test_case "movement hoisting (4.2)" `Quick
            test_movement_hoisting;
          Alcotest.test_case "sampled = full counters" `Quick
            test_sampled_counts_match;
          Alcotest.test_case "mem tile > block tile" `Quick
            test_mem_tile_exceeds_block;
          Alcotest.test_case "tiled conv2d correct" `Quick
            test_tiled_conv2d_correct;
          Alcotest.test_case "tiled doitgen correct" `Quick
            test_tiled_doitgen_correct;
          Alcotest.test_case "conv2d reuse verdicts" `Quick
            test_conv2d_reuse_verdicts;
        ] );
    ]
