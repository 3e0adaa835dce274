(* Time-tiled 1-D Jacobi with concurrent start.

     dune exec examples/jacobi.exe

   Shows the pipeline's band stage discovering the skewed permutable
   band of the time-expanded stencil, then runs the overlapped (halo)
   tiled kernel — the paper's [27] treatment — and verifies it against
   the reference executor before projecting large-size execution
   times. *)

open Emsc_transform
open Emsc_machine
open Emsc_driver
open Emsc_kernels

let gpu = Hierarchy.gtx8800
let word_bytes = (Hierarchy.staging gpu).Hierarchy.l_word_bytes

let () =
  (* 1. the transform story: Jacobi needs skewing to tile *)
  let c =
    match Pipeline.compile (Jacobi1d.job ()) with
    | Ok c -> c
    | Error e ->
      Format.eprintf "%a@." Frontend.pp_error e;
      exit 1
  in
  (match c.Pipeline.band with
   | Some band ->
     Format.printf "permutable band of the time-expanded stencil:@.";
     List.iter (fun h -> Format.printf "  %a@." Emsc_linalg.Vec.pp h)
       band.Hyperplanes.hyperplanes
   | None -> Format.printf "no permutable band?!@.");

  (* 2. overlapped tiling: correctness *)
  let n = 4096 and steps = 64 and ts = 128 and tt = 16 in
  let p = Jacobi1d.program ~n ~steps in
  let k = Stencil.overlapped_1d ~n ~steps ~ts ~tt p in
  let init idx = sin (float_of_int idx.(0) /. 10.0) in
  let m_ref, (_ : Exec.counters) =
    Runner.reference ~memory:(Runner.Filled [ ("cur", init) ]) p
  in
  let m, r =
    Runner.execute ~prog:p ~local_ref:k.Stencil.local_ref
      ~locals:k.Stencil.locals ~mode:Exec.Full
      ~memory:(Runner.Filled [ ("cur", init) ]) k.Stencil.ast
  in
  let a = Memory.global_data m_ref "cur" in
  let b = Memory.global_data m k.Stencil.result_array in
  let ok = ref true in
  Array.iteri (fun i x ->
    if Float.abs (x -. b.(i)) > 1e-6 then ok := false)
    a;
  Printf.printf "\noverlapped tiling (n=%d, %d steps, ts=%d, tt=%d): %s\n" n
    steps ts tt
    (if !ok then "matches reference" else "MISMATCH");
  Printf.printf "scratchpad per block: %d words; launches: %d\n"
    k.Stencil.smem_words k.Stencil.time_tiles;
  Printf.printf "global words moved: %.0f (vs %.0f for the untiled version)\n"
    (Exec.total_global r.Exec.totals)
    (float_of_int (n * steps * 6));

  (* 3. projected times at 512k cells, 4096 steps *)
  let n = 524288 and steps = 4096 in
  let p = Jacobi1d.program ~n ~steps in
  let time_of kernel coalesce =
    let _, r =
      Runner.execute ~prog:p ~local_ref:kernel.Stencil.local_ref
        ~locals:kernel.Stencil.locals ~memory:Runner.Phantom
        kernel.Stencil.ast
    in
    Timing.total_ms gpu
      { Timing.threads = 64;
        smem_bytes_per_block =
          kernel.Stencil.smem_words * word_bytes;
        coalesce_eff = coalesce; global_sync = true; double_buffer = false }
      r
  in
  let smem = time_of (Stencil.overlapped_1d ~n ~steps ~ts:256 ~tt:32 p) 16.0 in
  let dram = time_of (Stencil.dram_1d ~n ~steps ~ts:256 p) 3.5 in
  Printf.printf "\nprojected at n=512k, %d steps (ts=256, tt=32):\n" steps;
  Printf.printf "  scratchpad version  : %8.1f ms\n" smem;
  Printf.printf "  global-memory only  : %8.1f ms  (%.1fx slower)\n" dram
    (dram /. smem)
