(* Machine-layer tests: memory, the cache simulator, the executor's
   counters and sampled fidelity, the reference executor's schedule
   order, and timing-model monotonicities. *)

open Emsc_ir
open Emsc_codegen
open Emsc_machine
open Emsc_kernels

let no_params name = failwith ("unexpected parameter " ^ name)

(* --- memory ---------------------------------------------------------------- *)

let test_memory_roundtrip () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.write_global m "A" [| 2; 3 |] 7.5;
  Alcotest.(check (float 0.0)) "read back" 7.5
    (Memory.read_global m "A" [| 2; 3 |]);
  Alcotest.(check (float 0.0)) "other cell untouched" 0.0
    (Memory.read_global m "A" [| 3; 2 |]);
  Alcotest.(check int) "flat index row-major" 11
    (Memory.flat_index m "A" [| 2; 3 |])

let test_memory_bounds () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Memory: A index 4 out of bounds [0,4) at dim 0")
    (fun () -> ignore (Memory.read_global m "A" [| 4; 0 |]))

let test_memory_locals () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.declare_local m "l_A";
  Alcotest.(check bool) "is local" true (Memory.is_local m "l_A");
  Alcotest.(check bool) "global not local" false (Memory.is_local m "A");
  Memory.write_local m "l_A" [| 100; 200 |] 3.0;
  Alcotest.(check (float 0.0)) "sparse local" 3.0
    (Memory.read_local m "l_A" [| 100; 200 |]);
  Alcotest.(check (float 0.0)) "unwritten local is 0" 0.0
    (Memory.read_local m "l_A" [| 0; 0 |])

(* a local window grows in every direction without losing a cell; a
   rewrite is not a new cell; clearing keeps the window but reads 0 *)
let test_memory_local_window () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.declare_local m "l_A";
  let cells =
    [ (5, 5); (5, 6); (9, 5); (-3, 7); (5, -20); (40, 2); (5, 5) ]
  in
  List.iteri (fun k (i, j) ->
    Memory.write_local m "l_A" [| i; j |] (float_of_int (k + 1)))
    cells;
  List.iteri (fun k (i, j) ->
    if (i, j) <> (5, 5) then
      Alcotest.(check (float 0.0)) "written cell survives growth"
        (float_of_int (k + 1))
        (Memory.read_local m "l_A" [| i; j |]))
    cells;
  Alcotest.(check (float 0.0)) "last write wins" 7.0
    (Memory.read_local m "l_A" [| 5; 5 |]);
  Alcotest.(check (float 0.0)) "unwritten cell inside the window" 0.0
    (Memory.read_local m "l_A" [| 6; 6 |]);
  Alcotest.(check (list (pair string int))) "distinct cells written"
    [ ("l_A", 6) ] (Memory.local_occupancy m);
  Memory.clear_locals m;
  Alcotest.(check int) "cleared" 0 (Memory.local_words m);
  Alcotest.(check (float 0.0)) "cleared cell reads 0" 0.0
    (Memory.read_local m "l_A" [| 9; 5 |]);
  Memory.write_local m "l_A" [| 9; 5 |] 2.5;
  Alcotest.(check int) "counted again after clear" 1 (Memory.local_words m)

let test_memory_phantom () =
  let p = Matmul.program ~n:1000 in
  (* phantom: no 1000x1000 allocation, indices ignored *)
  let m = Memory.create_phantom p ~param_env:no_params in
  Memory.write_global m "A" [| 999; 999 |] 1.0;
  Alcotest.(check (float 0.0)) "single cell semantics" 1.0
    (Memory.read_global m "A" [| 0; 0 |])

(* --- cache ------------------------------------------------------------------ *)

let test_cache_basics () =
  let c =
    Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 ~word_bytes:4
  in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Cache.access c 1);
  Alcotest.(check bool) "hit same line end" true (Cache.access c 15);
  Alcotest.(check bool) "next line misses" false (Cache.access c 16);
  let st = Cache.stats c in
  Alcotest.(check (float 0.0)) "hits" 2.0 st.Cache.hits;
  Alcotest.(check (float 0.0)) "misses" 2.0 st.Cache.misses

let test_cache_lru_eviction () =
  (* 1024 B, 64 B lines, 2-way: 8 sets; lines mapping to set 0 are
     word addresses 0, 128, 256, ... *)
  let c =
    Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 ~word_bytes:4
  in
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  (* touch 0 again to make 128 the LRU *)
  Alcotest.(check bool) "0 still resident" true (Cache.access c 0);
  ignore (Cache.access c 256);
  (* 256 evicts 128, not 0 *)
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "128 evicted" false (Cache.access c 128)

let test_cache_hierarchy () =
  let h = Cache.Sim.create Hierarchy.core2duo_cache_as_scratchpad in
  Alcotest.(check int) "two simulated levels" 2 (Cache.Sim.num_levels h);
  Alcotest.(check int) "first access misses to memory" 2 (Cache.Sim.access h 0);
  Alcotest.(check int) "second hits L1" 0 (Cache.Sim.access h 0);
  Alcotest.(check (float 0.0)) "one home access" 1.0
    (Cache.Sim.home_accesses h)

(* --- executor ---------------------------------------------------------------- *)

let v = Ast.var
let i_ = Ast.int_

let test_exec_counters () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  (* plain triple loop *)
  let spec = Array.make 3 Emsc_transform.Tile.no_tiling in
  let ast = Emsc_transform.Tile.generate p spec ~movement:[] in
  let r = Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full ast in
  (* per iteration: 2 flops (add, mul) + write + 3 reads; 64 iterations *)
  Alcotest.(check (float 0.0)) "flops" (float_of_int (64 * 3))
    r.Exec.totals.Exec.flops;
  Alcotest.(check (float 0.0)) "loads" (float_of_int (64 * 3))
    r.Exec.totals.Exec.g_ld;
  Alcotest.(check (float 0.0)) "stores" (float_of_int 64)
    r.Exec.totals.Exec.g_st

let test_exec_guard_and_copy () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  Memory.fill m "A" (fun idx -> float_of_int ((10 * idx.(0)) + idx.(1)));
  let ast =
    [ Ast.Guard
        ( [ i_ 1 ],
          [ Ast.Copy
              { dst = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] };
                src = { Ast.array = "A"; indices = [| i_ 2; i_ 3 |] } } ] );
      Ast.Guard
        ( [ i_ (-1) ],
          [ Ast.Copy
              { dst = { Ast.array = "B"; indices = [| i_ 1; i_ 1 |] };
                src = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] } } ] ) ]
  in
  let (_ : Exec.result) =
    Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full ast
  in
  Alcotest.(check (float 0.0)) "guard true executed" 23.0
    (Memory.read_global m "B" [| 0; 0 |]);
  Alcotest.(check (float 0.0)) "guard false skipped" 0.0
    (Memory.read_global m "B" [| 1; 1 |])

let test_sampled_triangle () =
  (* triangular loop: trapezoid sampling must be exact for linearly
     varying trip counts *)
  let p = Matmul.program ~n:4 in
  let mk () = Memory.create p ~param_env:no_params in
  let ast =
    [ Ast.loop_ "i" ~lb:(i_ 0) ~ub:(i_ 29)
        [ Ast.loop_ "j" ~lb:(i_ 0) ~ub:(v "i")
            [ Ast.Copy
                { dst = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] };
                  src = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] } } ] ] ]
  in
  let full =
    Exec.run ~prog:p ~param_env:no_params ~memory:(mk ()) ~mode:Exec.Full ast
  in
  let sampled =
    Exec.run ~prog:p ~param_env:no_params ~memory:(mk ())
      ~mode:(Exec.Sampled 4) ast
  in
  Alcotest.(check (float 0.001)) "triangle loads exact under sampling"
    full.Exec.totals.Exec.g_ld sampled.Exec.totals.Exec.g_ld

let test_launch_detection () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  let ast =
    [ Ast.loop_ "t" ~lb:(i_ 0) ~ub:(i_ 2)
        [ Ast.loop_ ~par:Ast.Block "b" ~lb:(i_ 0) ~ub:(i_ 7)
            [ Ast.Copy
                { dst = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] };
                  src = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] } } ] ] ]
  in
  let r = Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:Exec.Full ast in
  Alcotest.(check int) "three launches" 3 (List.length r.Exec.launches);
  List.iter (fun l ->
    Alcotest.(check (float 0.0)) "grid" 8.0 l.Exec.grid;
    Alcotest.(check (float 0.0)) "per-block load" 1.0 l.Exec.per_block.Exec.g_ld)
    r.Exec.launches

let test_sampled_launch_repeat () =
  let p = Matmul.program ~n:4 in
  let m = Memory.create p ~param_env:no_params in
  let ast =
    [ Ast.loop_ "t" ~lb:(i_ 0) ~ub:(i_ 99)
        [ Ast.loop_ ~par:Ast.Block "b" ~lb:(i_ 0) ~ub:(i_ 7)
            [ Ast.Copy
                { dst = { Ast.array = "A"; indices = [| i_ 0; i_ 0 |] };
                  src = { Ast.array = "B"; indices = [| i_ 0; i_ 0 |] } } ] ] ]
  in
  let r =
    Exec.run ~prog:p ~param_env:no_params ~memory:m ~mode:(Exec.Sampled 4) ast
  in
  let total_launches =
    List.fold_left (fun acc l -> acc +. l.Exec.repeat) 0.0 r.Exec.launches
  in
  Alcotest.(check (float 0.001)) "100 dynamic launches" 100.0 total_launches

(* --- executor fast paths: each fails as the general path does ------------- *)

(* Loads and stores of rank 2 pass their indices to [Memory]
   directly, and unit-coefficient index terms add or subtract a slot
   directly.  Each case below runs one [Copy] through [Exec.run] and
   compares its outcome, message included, with the general path:
   [Memory]'s name-keyed accessors for bounds, ranks and windows, and
   an index form with a non-unit coefficient for overflow. *)

let fast_prog =
  Emsc_lang.Parser.parse
    "array A[4][5];\n\
     array B[4][5];\n\
     array C[6];\n\
     array D[2][3][4];\n\
     for (i = 0; i <= 0; i++) {\n\
    \  C[i] = 0;\n\
     }\n"

(* what a thunk did: its exception, as text, or "ok" *)
let outcome f =
  match f () with
  | _ -> "ok"
  | exception Invalid_argument m -> "Invalid_argument " ^ m
  | exception Failure m -> "Failure " ^ m

(* run one copy with the free names bound by [env] *)
let run_copy ?on_global ?(memory = Memory.create fast_prog ~param_env:no_params)
    env ~dst ~src () =
  let param_env name =
    match List.assoc_opt name env with
    | Some v -> Emsc_arith.Zint.of_int v
    | None -> no_params name
  in
  Exec.run ~prog:fast_prog ~param_env ~memory ~mode:Exec.Full ?on_global
    [ Ast.Copy
        { dst = { Ast.array = fst dst; indices = snd dst };
          src = { Ast.array = fst src; indices = snd src } } ]

let names = [| "p"; "q"; "r" |]

let at ixs = Array.mapi (fun k i -> (names.(k), i)) ixs
let by_name ixs = Array.mapi (fun k _ -> v names.(k)) ixs
let zeros n = Array.make n (i_ 0)

let test_fast_path_bounds_and_rank () =
  let hook _ _ _ = () in
  let cases =
    [ ("A", [| 4; 0 |]); ("A", [| 0; 5 |]); ("A", [| -1; 0 |]);
      ("A", [| 0; -1 |]); ("A", [| 3; 4 |]); ("C", [| 6 |]); ("C", [| -1 |]);
      ("C", [| 5 |]); ("D", [| 1; 3; 0 |]); ("D", [| 1; 2; 3 |]);
      (* rank mismatches, on the rank-2 and general paths *)
      ("A", [| 1 |]); ("C", [| 1; 1 |]); ("A", [| 1; 1; 1 |]);
      ("D", [| 1; 1 |]) ]
  in
  List.iter (fun (arr, ixs) ->
    let env = Array.to_list (at ixs) and idx = (arr, by_name ixs) in
    let label what = Printf.sprintf "%s %s[%s]" what arr
        (String.concat "][" (Array.to_list (Array.map string_of_int ixs))) in
    let m = Memory.create fast_prog ~param_env:no_params in
    let load = outcome (fun () -> Memory.read_global m arr ixs)
    and store = outcome (fun () -> Memory.write_global m arr ixs 1.0) in
    List.iter (fun on_global ->
      let hooked = if on_global = None then "" else " (hooked)" in
      Alcotest.(check string) (label "load" ^ hooked) load
        (outcome (run_copy ?on_global env ~dst:("B", zeros 2) ~src:idx));
      Alcotest.(check string) (label "store" ^ hooked) store
        (outcome (run_copy ?on_global env ~dst:idx ~src:("B", zeros 2))))
      [ None; Some hook ])
    cases;
  (* the failing cases do fail, with the general path's messages *)
  Alcotest.(check string) "message"
    "Invalid_argument Memory: A index 5 out of bounds [0,5) at dim 1"
    (outcome (run_copy [ ("p", 0); ("q", 5) ] ~dst:("B", zeros 2)
                ~src:("A", [| v "p"; v "q" |])));
  Alcotest.(check string) "rank message"
    "Invalid_argument Memory: rank mismatch on C"
    (outcome (run_copy [ ("p", 0); ("q", 0) ] ~dst:("C", [| v "p"; v "q" |])
                ~src:("B", zeros 2)))

(* index sums whose value leaves the native int range: the checked
   sum fails whatever order it adds the terms in *)
let test_fast_path_overflow () =
  let open Ast in
  let p = max_int - 1 in
  let env =
    [ ("p", p); ("q", 2); ("r", 0); ("s", 1); ("t", 3); ("h", p / 2);
      ("n", -p); ("m", min_int); ("hm", min_int / 2) ]
  in
  let load e =
    outcome (run_copy env ~dst:("B", zeros 2) ~src:("C", [| e |]))
  in
  let neg e = Mul (Emsc_arith.Zint.minus_one, e) in
  let overflow = "Failure Exec: integer overflow in index arithmetic" in
  (* [2 * h] is [p] through a non-unit coefficient *)
  let p2 = 2 *: v "h" in
  List.iter (fun (what, unit_form, general_form, expected) ->
    Alcotest.(check string) (what ^ ": general path") expected
      (load general_form);
    Alcotest.(check string) (what ^ ": unit coefficients") expected
      (load unit_form))
    [ ("p + 2", v "p" +: i_ 2, p2 +: i_ 2, overflow);
      ("p + q", v "p" +: v "q", p2 +: v "q", overflow);
      ("q - n", v "q" -: v "n", v "q" +: p2, overflow);
      ("-n + q", neg (v "n") +: v "q", p2 +: v "q", overflow);
      ("p + q + s", v "p" +: v "q" +: v "s", p2 +: v "q" +: v "s", overflow);
      ("p + q - r + s", v "p" +: v "q" -: v "r" +: v "s",
       p2 +: v "q" -: v "r" +: v "s", overflow);
      ("p + q - r + s + t", v "p" +: v "q" -: v "r" +: v "s" +: v "t",
       p2 +: v "q" -: v "r" +: v "s" +: v "t", overflow);
      ("q - m", v "q" -: v "m", v "q" -: (2 *: v "m"), overflow);
      ("-m", neg (v "m"), v "r" -: (2 *: v "m"), overflow);
      (* [-min_int] overflows, as [-1 * min_int] always did, even where
         the whole sum would fit *)
      ("-m - 1", neg (v "m") -: i_ 1, v "r" -: (2 *: v "hm") -: i_ 1,
       overflow);
      ( "p - q - p", v "p" -: v "q" -: v "p", p2 -: v "q" -: v "p",
        "Invalid_argument Memory: C index -2 out of bounds [0,6) at dim 0" );
      ("n + p + r", v "n" +: v "p" +: v "r", v "n" +: p2 +: v "r", "ok") ]

(* a rank-2 local store outside the window grows it exactly as
   [Memory.write_local] does, in every direction *)
let test_fast_path_local_growth () =
  let cells =
    [ (5, 5); (7, 5); (2, 5); (5, 9); (5, 1); (-20, 30); (5, 5); (6, 6) ]
  in
  let fast = Memory.create fast_prog ~param_env:no_params
  and general = Memory.create fast_prog ~param_env:no_params in
  List.iter (fun m ->
    Memory.declare_local m "L";
    Memory.declare_local m "M";
    Memory.write_global m "B" [| 0; 0 |] 2.5)
    [ fast; general ];
  List.iteri (fun k (i, j) ->
    Memory.write_global fast "B" [| 0; 0 |] (float_of_int k);
    ignore
      (run_copy ~memory:fast [ ("p", i); ("q", j) ]
         ~dst:("L", [| v "p"; v "q" |]) ~src:("B", zeros 2) ());
    ignore
      (run_copy ~memory:fast [ ("p", i + j) ] ~dst:("M", [| v "p" |])
         ~src:("B", zeros 2) ());
    Memory.write_local general "L" [| i; j |] (float_of_int k);
    Memory.write_local general "M" [| i + j |] (float_of_int k))
    cells;
  Alcotest.(check (list (pair string int))) "local_occupancy"
    (Memory.local_occupancy general) (Memory.local_occupancy fast);
  Alcotest.(check int) "local_words" (Memory.local_words general)
    (Memory.local_words fast);
  for i = -21 to 8 do
    for j = 0 to 31 do
      Alcotest.(check (float 0.0)) "L cell"
        (Memory.read_local general "L" [| i; j |])
        (Memory.read_local fast "L" [| i; j |])
    done
  done;
  (* a fast load reads what the general path reads, 0 outside the
     window; a store of the wrong rank fails as the general one does *)
  List.iter (fun (i, j) ->
    ignore
      (run_copy ~memory:fast [ ("p", i); ("q", j) ] ~dst:("B", zeros 2)
         ~src:("L", [| v "p"; v "q" |]) ());
    Alcotest.(check (float 0.0)) "L load"
      (Memory.read_local general "L" [| i; j |])
      (Memory.read_global fast "B" [| 0; 0 |]))
    ((100, 100) :: cells);
  Alcotest.(check string) "rank-1 store to a rank-2 local"
    (outcome (fun () -> Memory.write_local general "L" [| 1 |] 0.0))
    (outcome (run_copy ~memory:fast [ ("p", 1) ] ~dst:("L", [| v "p" |])
                ~src:("B", zeros 2)))

(* --- reference executor ------------------------------------------------------ *)

let test_reference_schedule_order () =
  (* fig1: S1 at (i,j) must run before S2 at (i,j,k), and both obey
     lexicographic i, j order *)
  let insts =
    Reference.instances Fig1.program ~param_env:no_params
  in
  Alcotest.(check int) "instance count" ((5 * 5) + (5 * 5 * 10))
    (List.length insts);
  (* first instance is S1 at (10,10); the next ten are S2 at (10,10,k) *)
  (match insts with
   | (s, iters) :: rest ->
     Alcotest.(check string) "first is S1" "S1" s.Prog.name;
     Alcotest.(check (list int)) "at (10,10)" [ 10; 10 ]
       (Emsc_linalg.Vec.to_ints_exn iters);
     let s2s = List.filteri (fun i _ -> i < 10) rest in
     List.iter (fun ((s : Prog.stmt), _) ->
       Alcotest.(check string) "then S2" "S2" s.Prog.name)
       s2s
   | [] -> Alcotest.fail "no instances")

(* The enumerator [Reference] used before it walked Fourier–Motzkin
   levels: an emptiness LP per prefix and integer LP bounds per level.
   Kept here only, as the witness the new enumerator is checked
   against. *)
let per_point_domain_points (s : Prog.stmt) ~np ~param_values =
  let open Emsc_arith in
  let open Emsc_poly in
  let fixed =
    let rec go k p =
      if k >= np then p
      else go (k + 1) (Poly.fix_dim p s.Prog.depth param_values.(k))
    in
    go 0 s.Prog.domain
  in
  let acc = ref [] in
  let rec scan p prefix =
    if Poly.is_empty p then ()
    else if Poly.dim p = 0 then acc := List.rev prefix :: !acc
    else begin
      match Poly.var_bounds_int p 0 with
      | Some lo, Some hi ->
        let v = ref lo in
        while Zint.compare !v hi <= 0 do
          scan (Poly.fix_dim p 0 !v) (!v :: prefix);
          v := Zint.add !v Zint.one
        done
      | _ -> invalid_arg ("Reference: unbounded domain in " ^ s.Prog.name)
    end
  in
  scan fixed [];
  List.rev_map Array.of_list !acc

(* the same points in the same order, statement by statement *)
let check_same_points name (p : Prog.t) param_env =
  let np = Prog.nparams p in
  let param_values = Array.map param_env p.Prog.params in
  List.iter (fun (s : Prog.stmt) ->
    let ints = List.map Emsc_linalg.Vec.to_ints_exn in
    Alcotest.(check (list (list int)))
      (Printf.sprintf "%s %s" name s.Prog.name)
      (ints (per_point_domain_points s ~np ~param_values))
      (ints (Reference.domain_points s ~np ~param_values)))
    p.Prog.stmts

let test_reference_points_suite () =
  List.iter (fun (job : Emsc_driver.Pipeline.job) ->
    match Emsc_driver.Pipeline.compile job with
    | Ok c ->
      check_same_points
        (Emsc_driver.Source.name job.Emsc_driver.Pipeline.source)
        c.Emsc_driver.Pipeline.prog no_params
    | Error e -> Alcotest.fail (Emsc_driver.Frontend.error_message e))
    (Suite.jobs ())

(* the programs of [emsc check --fuzz 200 --seed 3] *)
let test_reference_points_fuzz_corpus () =
  for i = 0 to 199 do
    let spec = Emsc_check.Gen.generate (Random.State.make [| 3; i |]) in
    check_same_points (Printf.sprintf "fuzz %d" i)
      (Emsc_check.Gen.materialize spec) (Emsc_check.Gen.param_env spec)
  done

(* --- timing model ------------------------------------------------------------- *)

let test_occupancy () =
  let g = Hierarchy.gtx8800 in
  Alcotest.(check int) "no smem -> max blocks" 8
    (Timing.occupancy g ~smem_bytes_per_block:0);
  Alcotest.(check int) "16KB -> 1 block" 1
    (Timing.occupancy g ~smem_bytes_per_block:16384);
  Alcotest.(check int) "4KB -> 4 blocks" 4
    (Timing.occupancy g ~smem_bytes_per_block:4096);
  Alcotest.(check int) "1KB -> capped at 8" 8
    (Timing.occupancy g ~smem_bytes_per_block:1024)

let test_timing_monotonic_in_traffic () =
  let g = Hierarchy.gtx8800 in
  let params = Timing.default_params in
  let mk gld =
    { Exec.grid = 32.0;
      per_block =
        { Exec.flops = 1000.0; g_ld = gld; g_st = 0.0; s_ld = 0.0;
          s_st = 0.0; syncs = 0.0; fences = 0.0 };
      repeat = 1.0 }
  in
  let t1 = Timing.launch_cycles g params (mk 1000.0) in
  let t2 = Timing.launch_cycles g params (mk 100000.0) in
  Alcotest.(check bool) "more traffic, more time" true (t2 > t1)

let test_timing_repeat_scales () =
  let g = Hierarchy.gtx8800 in
  let params = Timing.default_params in
  let l =
    { Exec.grid = 16.0;
      per_block =
        { Exec.flops = 500.0; g_ld = 10.0; g_st = 10.0; s_ld = 0.0;
          s_st = 0.0; syncs = 2.0; fences = 1.0 };
      repeat = 1.0 }
  in
  let t1 = Timing.launch_cycles g params l in
  let t5 = Timing.launch_cycles g params { l with Exec.repeat = 5.0 } in
  Alcotest.(check (float 0.001)) "repeat multiplies" (5.0 *. t1) t5

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "bounds check" `Quick test_memory_bounds;
          Alcotest.test_case "locals" `Quick test_memory_locals;
          Alcotest.test_case "local window growth" `Quick
            test_memory_local_window;
          Alcotest.test_case "phantom" `Quick test_memory_phantom;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "hierarchy" `Quick test_cache_hierarchy;
        ] );
      ( "exec",
        [
          Alcotest.test_case "counters" `Quick test_exec_counters;
          Alcotest.test_case "guards and copies" `Quick test_exec_guard_and_copy;
          Alcotest.test_case "sampled triangle exact" `Quick
            test_sampled_triangle;
          Alcotest.test_case "launch detection" `Quick test_launch_detection;
          Alcotest.test_case "sampled launch repeat" `Quick
            test_sampled_launch_repeat;
          Alcotest.test_case "fast paths: bounds and rank" `Quick
            test_fast_path_bounds_and_rank;
          Alcotest.test_case "fast paths: index overflow" `Quick
            test_fast_path_overflow;
          Alcotest.test_case "fast paths: local window growth" `Quick
            test_fast_path_local_growth;
        ] );
      ( "reference",
        [
          Alcotest.test_case "schedule order" `Quick
            test_reference_schedule_order;
          Alcotest.test_case "points = per-point enumerator (suite)" `Quick
            test_reference_points_suite;
          Alcotest.test_case "points = per-point enumerator (fuzz corpus)"
            `Quick test_reference_points_fuzz_corpus;
        ] );
      ( "timing",
        [
          Alcotest.test_case "occupancy" `Quick test_occupancy;
          Alcotest.test_case "traffic monotonic" `Quick
            test_timing_monotonic_in_traffic;
          Alcotest.test_case "repeat scales" `Quick test_timing_repeat_scales;
        ] );
    ]
