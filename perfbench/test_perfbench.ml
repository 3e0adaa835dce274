(* The benchmark's own tests.

   Default: fast checks of the input generators, the statistics and the
   set-up functions ([dune build --profile perfbench @perfbench/test]).
   With [--slow]: the shortest traced runs of every workload, checking
   that the deterministic metrics repeat exactly on the development
   seed, and equal them on a held-out one
   ([dune build --profile perfbench @perfbench/slow]). *)

open Perfbench_lib
open Common

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

(* --- inputs ----------------------------------------------------------------- *)

let inputs_of seed =
  let ops, warmup = Inputs.compile_cold ~seed in
  let hot = Array.length Inputs.hot_set in
  let sched = List.init 600 (Inputs.serve_schedule ~seed ~hot) in
  let colds = List.init 10 (Inputs.cold_kernel ~seed) in
  let mem =
    match Inputs.memory ~seed (Emsc_lang.Parser.parse Inputs.rotation_kernels.(0).Inputs.text) with
    | Emsc_driver.Runner.Filled l -> List.map (fun (n, f) -> (n, f [| 1; 2 |], f [| 3; 0 |])) l
    | _ -> []
  in
  (ops, warmup, sched, colds, mem)

let test_seeds () =
  check "one seed regenerates identical inputs" (inputs_of 7 = inputs_of 7);
  check "another seed gives other inputs" (inputs_of 7 <> inputs_of 8);
  let ops, warmup = Inputs.compile_cold ~seed:7 in
  check "warm-up inputs are outside the timed set"
    (List.for_all (fun w -> not (Array.exists (( = ) w) ops)) warmup);
  let hot = Inputs.hot_set in
  let colds = List.init 200 (Inputs.cold_kernel ~seed:7) in
  let texts = List.map (fun k -> k.Inputs.text) colds in
  check "cold texts are never seen twice or in the hot set"
    (List.length (List.sort_uniq compare texts) = List.length texts
     && List.for_all (fun k -> not (List.mem k.Inputs.text texts)) (Array.to_list hot))

(* --- steadiness guards ------------------------------------------------------- *)

let test_tail () =
  List.iter
    (fun n ->
      let l = List.init n float_of_int in
      let q, _, b = tail l in
      let next = List.find_opt (fun r -> r > q) tail_ladder in
      check (Printf.sprintf "tail of %d samples is p%g with %d beyond" n (q *. 100.0) b)
        (b >= 10 || q = 0.5)
        ;
      check (Printf.sprintf "tail of %d samples is the highest such rung" n)
        (match next with None -> true | Some r -> beyond n r < 10))
    [ 40; 100; 250; 999; 1000; 5000; 20000 ]

(* Where the mix puts mode boundaries in the sorted op latencies, as
   shares of ops: each reported percentile must sit [margin] away. *)
let margin = 0.04

let far_from_boundaries name boundaries =
  List.iter
    (fun p ->
      check
        (Printf.sprintf "%s: p%g is %.0f+ points from every mix share" name (p *. 100.0)
           (margin *. 100.0))
        (List.for_all (fun b -> Float.abs (p -. b) >= margin) boundaries))
    tail_ladder

let test_mix_shares () =
  List.iter
    (fun seed ->
      let ops, _ = Inputs.compile_cold ~seed in
      let n = float_of_int (Array.length ops) in
      let count f = float_of_int (Array.fold_left (fun a i -> if f i then a + 1 else a) 0 ops) in
      let tiled = count Inputs.is_tiled in
      (* jacobi compiles as fast as a generated program, so the slow mode
         is the other tiled families *)
      let slow =
        count (function Inputs.Kernel k -> k.Inputs.family <> "jacobi1d" | _ -> false)
      in
      far_from_boundaries
        (Printf.sprintf "compile-cold seed %d" seed)
        [ 1.0 -. (tiled /. n); 1.0 -. (slow /. n) ])
    [ 1; 2; 3 ];
  let hot = Array.length Inputs.hot_set in
  let slots = 6000 in
  let cold =
    List.length
      (List.filter fst (List.init slots (Inputs.serve_schedule ~seed:1 ~hot)))
  in
  let c = float_of_int cold /. float_of_int slots in
  check "serve-mixed: exactly one cold request per block"
    (cold = slots / Inputs.cold_every);
  let picks =
    List.filter_map (fun (cold, h) -> if cold then None else Some h)
      (List.init slots (Inputs.serve_schedule ~seed:1 ~hot))
  in
  let counts =
    List.init hot (fun h -> List.length (List.filter (( = ) h) picks))
  in
  check "serve-mixed: every hot text gets the same share"
    (List.fold_left max 0 counts - List.fold_left min max_int counts <= 1);
  (* cold requests, and about as many hot ones queued behind them *)
  far_from_boundaries "serve-mixed" [ 1.0 -. c; 1.0 -. (2.0 *. c) ];
  let r = Array.length Inputs.rotation in
  far_from_boundaries "run-kernels"
    (List.init (r - 1) (fun i -> float_of_int (i + 1) /. float_of_int r))

let test_ops_per_s () =
  let op_ms = [ 10.0; 20.0; 30.0; 40.0 ] in
  let wall_s = List.fold_left ( +. ) 0.0 op_ms /. 1000.0 in
  let m = e2e ~setup_s:1.0 ~op_ms ~wall_s ~peak_rss_mb:1.0 ~code_size:1 ~moved_words:1.0 in
  let v name = (List.find (fun x -> x.name = name) m).value in
  check "ops_per_s is verified ops over the timed wall"
    (Float.abs ((v "ops_per_s" *. wall_s) -. 4.0) < 1e-9);
  check "ops_per_s matches the mean op latency of a single caller"
    (Float.abs ((v "ops_per_s" *. mean op_ms) -. 1000.0) < 1e-6)

let test_self_time () =
  let sp id parent t0 t1 = { Spans.id; parent; op = 0; name = string_of_int id; t0; t1 } in
  let spans = [ sp 0 (-1) 0.0 10.0; sp 1 0 1.0 4.0; sp 2 0 3.0 6.0; sp 3 1 2.0 3.0 ] in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  check "self time subtracts the union of child intervals"
    (List.assoc 0 self = 5.0 && List.assoc 1 self = 2.0 && List.assoc 2 self = 3.0
     && List.assoc 3 self = 1.0)

(* --- set-up does the real one-time work ------------------------------------- *)

let test_setup () =
  let s, secs = timed (Compile_cold.setup ~seed:3) in
  check "compile-cold set-up compiles every warm-up input"
    (s.Compile_cold.warmed = 4 && Array.length s.Compile_cold.jobs = Array.length s.Compile_cold.ops);
  check "compile-cold set-up is timed" (secs > 0.0);
  let hot = Inputs.hot_set in
  let d, secs = timed (Serve_mixed.boot ~hot) in
  let stores = Emsc_driver.Cache.stores d.Serve_mixed.cache in
  Serve_mixed.shutdown d;
  check "serve-mixed set-up prefills the hot set through the daemon"
    (d.Serve_mixed.prefilled = Array.length hot && stores >= 3 * Array.length hot);
  check "serve-mixed set-up is timed" (secs > 0.0);
  let plain jb = Result.map_error Emsc_driver.Frontend.error_message (Emsc_driver.Pipeline.compile jb) in
  let ks, secs = timed (Run_kernels.setup ~seed:3 ~compile:plain) in
  check "run-kernels set-up compiles the kernels and computes references"
    (Array.length ks = 4
     && Array.for_all (fun k -> k.Run_kernels.ref_arrays <> [] && k.Run_kernels.compiled.Emsc_driver.Pipeline.tiled <> None) ks);
  check "run-kernels set-up is timed" (secs > 0.0)

(* --- deterministic metrics (slow) ------------------------------------------- *)

let deterministic =
  [ "code_size"; "moved_words"; "core.buffers"; "poly.simplex_calls";
    "poly.simplex_pivots"; "poly.is_empty_calls"; "pip.bb_nodes"; "machine.flops";
    "machine.dma_words" ]

let pass_values (run : Workloads.run) seed =
  (* [seconds = 0]: the fewest whole passes over the op set *)
  let o = run ~seed ~seconds:0.0 ~traced:true in
  let v name = List.find_opt (fun m -> m.name = name) o.traced_e2e in
  ( o.failed,
    List.filter_map
      (fun m -> if List.mem m.name deterministic then Some (m.name, m.value) else None)
      (o.e2e @ o.layers),
    List.for_all
      (fun m -> match v m.name with Some t -> t.value = m.value | None -> false)
      (List.filter (fun m -> List.mem m.name [ "code_size"; "moved_words" ]) o.e2e) )

let test_deterministic () =
  List.iter
    (fun (name, run) ->
      let by_seed =
        List.map
          (fun seed ->
            let f1, a, same1 = pass_values run seed in
            let f2, b, same2 = pass_values run seed in
            check (Printf.sprintf "%s seed %d: no op fails" name seed) (f1 = 0 && f2 = 0);
            check
              (Printf.sprintf "%s seed %d: %s repeat exactly" name seed
                 (String.concat ", " (List.map fst a)))
              (a = b && a <> []);
            check
              (Printf.sprintf "%s seed %d: traced ops give the same code size and moved words"
                 name seed)
              (same1 && same2);
            a)
          [ 1; 4242 ]
      in
      check
        (Printf.sprintf "%s: deterministic metrics are the same on seeds 1 and 4242" name)
        (match by_seed with [ a; b ] -> a = b | _ -> false))
    Workloads.table

let () =
  let slow = Array.exists (( = ) "--slow") Sys.argv in
  if slow then test_deterministic ()
  else begin
    test_seeds ();
    test_tail ();
    test_mix_shares ();
    test_ops_per_s ();
    test_self_time ();
    test_setup ()
  end;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
