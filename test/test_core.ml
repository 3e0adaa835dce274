(* Core framework tests: the paper's Figure 1 worked example must be
   reproduced exactly (buffer extents, offsets, movement sets), plus
   unit tests for data spaces, partitioning, Algorithm 1 and the
   movement optimizer. *)

open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir
open Emsc_codegen
open Emsc_core

let fig1 = Emsc_kernels.Fig1.program

(* --- tiny AST walker: collect executed Copy instances ----------------- *)

type copy_event = {
  dst_arr : string;
  dst_idx : int list;
  src_arr : string;
  src_idx : int list;
}

let run_copies stms =
  let events = ref [] in
  let rec run env stms =
    List.iter
      (fun s ->
        match s with
        | Ast.Loop l ->
          let lb = Ast.eval env l.lb and ub = Ast.eval env l.ub in
          let v = ref lb in
          while Zint.compare !v ub <= 0 do
            let vv = !v in
            let env' n = if n = l.var then vv else env n in
            run env' l.body;
            v := Zint.add !v l.step
          done
        | Ast.Guard (conds, body) ->
          if List.for_all (fun c -> not (Zint.is_negative (Ast.eval env c)))
               conds
          then run env body
        | Ast.Copy { dst; src } ->
          let ev =
            {
              dst_arr = dst.Ast.array;
              dst_idx =
                Array.to_list
                  (Array.map (fun e -> Zint.to_int_exn (Ast.eval env e))
                     dst.Ast.indices);
              src_arr = src.Ast.array;
              src_idx =
                Array.to_list
                  (Array.map (fun e -> Zint.to_int_exn (Ast.eval env e))
                     src.Ast.indices);
            }
          in
          events := ev :: !events
        | Ast.Stmt_call _ | Ast.Sync | Ast.Fence | Ast.Comment _ -> ())
      stms
  in
  run (fun n -> failwith ("unbound " ^ n)) stms;
  List.rev !events

let counts_exn u =
  match Count.count_uset u with
  | Count.Exact n -> Zint.to_int_exn n
  | _ -> Alcotest.fail "expected exact count"

(* --- data spaces -------------------------------------------------------- *)

let test_spaces_of_array () =
  let spaces_a = Dataspaces.spaces_of_array fig1 "A" in
  let spaces_b = Dataspaces.spaces_of_array fig1 "B" in
  Alcotest.(check int) "A has 3 references" 3 (List.length spaces_a);
  Alcotest.(check int) "B has 2 references" 2 (List.length spaces_b);
  (* the A[i+j][j+1] space is [20,28] x [11,15] with a diagonal band *)
  let diag =
    List.find
      (fun (d : Dataspaces.dspace) ->
        d.Dataspaces.stmt.Prog.name = "S1"
        && d.Dataspaces.access.Prog.kind = Prog.Read)
      spaces_a
  in
  let lo, hi = Poly.var_bounds_int diag.Dataspaces.space 0 in
  Alcotest.(check int) "d0 lb" 20 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "d0 ub" 28 (Zint.to_int_exn (Option.get hi))

let test_partitions () =
  let parts_a = Dataspaces.partition_array fig1 "A" in
  let parts_b = Dataspaces.partition_array fig1 "B" in
  (* the write + A[i][k] overlap; the diagonal read is disjoint *)
  Alcotest.(check int) "A partitions" 2 (List.length parts_a);
  Alcotest.(check int) "B partitions" 2 (List.length parts_b);
  let sizes =
    List.sort compare
      (List.map (fun (p : Dataspaces.partition) ->
         List.length p.Dataspaces.members)
         parts_a)
  in
  Alcotest.(check (list int)) "A partition sizes" [ 1; 2 ] sizes

(* Partitions are listed in a canonical order that shows in buffer
   names.  It is the order polymorphic compare gave the former
   sign-magnitude Zint, so among access maps a coefficient of -1 sorts
   before -2. *)
let test_partition_order () =
  let acc k c = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ k; c ] ] in
  let w = Prog.mk_access ~array:"C" ~kind:Prog.Write ~rows:[ [ 1; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"S" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (0, 10) ])
      ~writes:[ w ]
      ~reads:[ acc (-2) 50; acc (-1) 100 ]
      ~body:(w, Prog.Eadd (Prog.Eref (acc (-2) 50), Prog.Eref (acc (-1) 100)))
      ~beta:[ 0; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays = [ Build.array1 "A" 128 ~np:0; Build.array1 "C" 16 ~np:0 ];
      stmts = [ s ] }
  in
  let first_coeff (part : Dataspaces.partition) =
    match part.Dataspaces.members with
    | d :: _ -> Zint.to_int_exn d.Dataspaces.access.Prog.map.(0).(0)
    | [] -> Alcotest.fail "empty partition"
  in
  Alcotest.(check (list int)) "partition order" [ -1; -2 ]
    (List.map first_coeff (Dataspaces.partition_array p "A"))

(* --- Algorithm 1 -------------------------------------------------------- *)

let test_reuse_rank () =
  let s2 = Prog.find_stmt fig1 2 in
  let a_read =
    List.find (fun (a : Prog.access) -> a.Prog.array = "A") s2.Prog.reads
  in
  Alcotest.(check bool) "A[i][k] has non-constant reuse" true
    (Reuse.access_has_nonconstant_reuse s2 a_read);
  let s1 = Prog.find_stmt fig1 1 in
  let diag = List.hd s1.Prog.reads in
  Alcotest.(check bool) "A[i+j][j+1] is rank-full" false
    (Reuse.access_has_nonconstant_reuse s1 diag)

let test_reuse_partitions () =
  let parts = Dataspaces.partition_array fig1 "A" in
  let reports =
    List.map (fun part ->
      (List.length part.Dataspaces.members, Reuse.analyze fig1 part))
      parts
  in
  List.iter (fun (n, (r : Reuse.report)) ->
    if n = 2 then
      Alcotest.(check bool) "overlapping partition beneficial" true
        r.Reuse.beneficial
    else
      (* singleton diagonal read: constant reuse only, no overlap *)
      Alcotest.(check bool) "singleton not beneficial" false
        r.Reuse.beneficial)
    reports

let test_reuse_constant_overlap () =
  (* two reads of the same box through rank-full accesses: A[i][j] and
     A[i][j] in a 2-deep nest overlap 100% -> beneficial via δ *)
  let acc1 =
    Prog.mk_access ~array:"A" ~kind:Prog.Read
      ~rows:[ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]
  in
  let acc2 =
    Prog.mk_access ~array:"A" ~kind:Prog.Read
      ~rows:[ [ 1; 0; 1 ]; [ 0; 1; 0 ] ]
  in
  let w =
    Prog.mk_access ~array:"C" ~kind:Prog.Write
      ~rows:[ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]
  in
  let s =
    Build.stmt ~id:1 ~name:"S" ~np:0 ~depth:2
      ~domain:(Build.box_domain ~np:0 [ (0, 19); (0, 19) ])
      ~writes:[ w ] ~reads:[ acc1; acc2 ]
      ~body:(w, Prog.Eadd (Prog.Eref acc1, Prog.Eref acc2))
      ~beta:[ 0; 0; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays =
        [ Emsc_ir.Build.array2 "A" 32 32 ~np:0;
          Emsc_ir.Build.array2 "C" 32 32 ~np:0 ];
      stmts = [ s ] }
  in
  let parts = Dataspaces.partition_array p "A" in
  Alcotest.(check int) "one partition" 1 (List.length parts);
  let r = Reuse.analyze p (List.hd parts) in
  Alcotest.(check bool) "not order-of-magnitude" false r.Reuse.nonconstant;
  (match r.Reuse.overlap_fraction with
   | Some f -> Alcotest.(check bool) "overlap > 0.3" true (f > 0.3)
   | None -> Alcotest.fail "expected overlap fraction");
  Alcotest.(check bool) "beneficial by δ" true r.Reuse.beneficial

let test_reuse_truncated_count_is_unknown () =
  (* regression: when the point count hits [count_limit] mid-partition,
     the partial tally is only a lower bound — criterion (b) must
     report "unknown" rather than compare a truncated sum against δ *)
  let acc1 =
    Prog.mk_access ~array:"A" ~kind:Prog.Read
      ~rows:[ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]
  in
  let acc2 =
    Prog.mk_access ~array:"A" ~kind:Prog.Read
      ~rows:[ [ 1; 0; 1 ]; [ 0; 1; 0 ] ]
  in
  let w =
    Prog.mk_access ~array:"C" ~kind:Prog.Write
      ~rows:[ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]
  in
  let s =
    Build.stmt ~id:1 ~name:"S" ~np:0 ~depth:2
      ~domain:(Build.box_domain ~np:0 [ (0, 19); (0, 19) ])
      ~writes:[ w ] ~reads:[ acc1; acc2 ]
      ~body:(w, Prog.Eadd (Prog.Eref acc1, Prog.Eref acc2))
      ~beta:[ 0; 0; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays =
        [ Emsc_ir.Build.array2 "A" 32 32 ~np:0;
          Emsc_ir.Build.array2 "C" 32 32 ~np:0 ];
      stmts = [ s ] }
  in
  let part = List.hd (Dataspaces.partition_array p "A") in
  (* with an honest limit the ~100% overlap is computable... *)
  let full = Reuse.analyze p part in
  Alcotest.(check bool) "computable overlap is beneficial" true
    full.Reuse.beneficial;
  (* ...with a limit below the ~420-point union the fraction must be
     unknown, and criterion (b) must not fire from the truncation *)
  let truncated = Reuse.analyze ~count_limit:16 p part in
  Alcotest.(check bool) "fraction unknown when truncated" true
    (truncated.Reuse.overlap_fraction = None);
  Alcotest.(check bool) "truncated count is not beneficial" false
    truncated.Reuse.beneficial

let test_overlap_three_way () =
  (* regression: three mutually-overlapping reads A[i], A[i+1], A[i+2]
     over i in [0,5] give spaces [0,5], [1,6], [2,7]: union [0,7] has 8
     elements, Σ|DSᵢ| = 18.  The old pairwise-intersection sum counted
     5 + 4 + 5 = 14 → 14/8 = 1.75, an impossible fraction (> 1.0) that
     over-states reuse; Σ|DSᵢ| − |∪DSᵢ| = 10 clamps to fraction 1.0 *)
  let acc c =
    Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 1; c ] ]
  in
  let w = Prog.mk_access ~array:"C" ~kind:Prog.Write ~rows:[ [ 1; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"S" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (0, 5) ])
      ~writes:[ w ]
      ~reads:[ acc 0; acc 1; acc 2 ]
      ~body:
        ( w,
          Prog.Eadd
            (Prog.Eref (acc 0), Prog.Eadd (Prog.Eref (acc 1), Prog.Eref (acc 2)))
        )
      ~beta:[ 0; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays = [ Build.array1 "A" 16 ~np:0; Build.array1 "C" 16 ~np:0 ];
      stmts = [ s ] }
  in
  let parts = Dataspaces.partition_array p "A" in
  Alcotest.(check int) "one partition" 1 (List.length parts);
  let r = Reuse.analyze p (List.hd parts) in
  match r.Reuse.overlap_fraction with
  | None -> Alcotest.fail "expected an overlap fraction"
  | Some f ->
    Alcotest.(check bool) "fraction within [0,1]" true (f >= 0.0 && f <= 1.0);
    Alcotest.(check (float 1e-9)) "clamped to 1.0" 1.0 f

(* --- Algorithm 1 boundary cases ----------------------------------------- *)

let empty_partition rank =
  { Dataspaces.array = "A"; rank; members = []; union = Uset.empty rank }

let test_empty_partition () =
  let r = Reuse.analyze { Prog.params = [||]; arrays = []; stmts = [] }
      (empty_partition 1)
  in
  Alcotest.(check bool) "no rank reuse" false r.Reuse.nonconstant;
  Alcotest.(check bool) "no fraction" true (r.Reuse.overlap_fraction = None);
  Alcotest.(check bool) "not beneficial" false r.Reuse.beneficial

let test_zero_volume_union () =
  (* an empty statement domain instantiates to a zero-volume union:
     the fraction is undefined (None), and the partition must not be
     judged beneficial *)
  let acc = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 1; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"S" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (5, 4) ]) (* lo > hi: empty *)
      ~reads:[ acc ] ~beta:[ 0; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays = [ Build.array1 "A" 8 ~np:0 ];
      stmts = [ s ] }
  in
  let part =
    { Dataspaces.array = "A"; rank = 1;
      members =
        [ { Dataspaces.stmt = s; access = acc;
            space = Dataspaces.space_of_access p s acc } ];
      union = Uset.empty 1 }
  in
  let r = Reuse.analyze p part in
  Alcotest.(check bool) "zero volume: no fraction" true
    (r.Reuse.overlap_fraction = None);
  Alcotest.(check bool) "zero volume: not beneficial" false r.Reuse.beneficial

let test_fraction_exactly_delta () =
  (* Section 3.1 says copy when the overlap "exceeds" δ: a fraction of
     exactly δ must NOT qualify (the code pins [>], not [>=]).
     S1 reads A[i] over [0,6] (7 elts), S2 reads A[i] over [4,9]
     (6 elts): union [0,9] = 10, overlap = 13 − 10 = 3 → exactly 0.3 *)
  let acc = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 1; 0 ] ] in
  let s1 =
    Build.stmt ~id:1 ~name:"S1" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (0, 6) ])
      ~reads:[ acc ] ~beta:[ 0; 0 ] ()
  in
  let s2 =
    Build.stmt ~id:2 ~name:"S2" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (4, 9) ])
      ~reads:[ acc ] ~beta:[ 1; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays = [ Build.array1 "A" 16 ~np:0 ];
      stmts = [ s1; s2 ] }
  in
  let parts = Dataspaces.partition_array p "A" in
  Alcotest.(check int) "one partition" 1 (List.length parts);
  let part = List.hd parts in
  let r = Reuse.analyze ~delta:0.3 p part in
  (match r.Reuse.overlap_fraction with
   | Some f -> Alcotest.(check (float 1e-9)) "fraction = 0.3" 0.3 f
   | None -> Alcotest.fail "expected an overlap fraction");
  Alcotest.(check bool) "equal to δ is not beneficial" false
    r.Reuse.beneficial;
  (* strictly above a smaller δ it must qualify *)
  let r' = Reuse.analyze ~delta:0.25 p part in
  Alcotest.(check bool) "above δ is beneficial" true r'.Reuse.beneficial

(* --- Figure 1 reproduction ---------------------------------------------- *)

let fig1_plan () =
  Plan.plan_block ~arch:`Cell ~merge_per_array:true fig1

let buffer_named plan name =
  List.find (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name = name)
    plan.Plan.buffered

let int_of_expr e = Zint.to_int_exn (Ast.eval (fun _ -> failwith "env") e)

let test_fig1_buffers () =
  let plan = fig1_plan () in
  Alcotest.(check int) "two buffers" 2 (List.length plan.Plan.buffered);
  let la = (buffer_named plan "l_A").Plan.buffer in
  let lb = (buffer_named plan "l_B").Plan.buffer in
  Alcotest.(check (list int)) "LA sizes = [19; 10]" [ 19; 10 ]
    (Array.to_list (Array.map int_of_expr (Alloc.size_exprs la)));
  Alcotest.(check (list int)) "LB sizes = [19; 24]" [ 19; 24 ]
    (Array.to_list (Array.map int_of_expr (Alloc.size_exprs lb)));
  Alcotest.(check (list int)) "LA offsets = [10; 11]" [ 10; 11 ]
    (Array.to_list
       (Array.map (fun (b : Alloc.bound) -> int_of_expr b.Alloc.expr)
          la.Alloc.lbs));
  Alcotest.(check (list int)) "LB offsets = [10; 11]" [ 10; 11 ]
    (Array.to_list
       (Array.map (fun (b : Alloc.bound) -> int_of_expr b.Alloc.expr)
          lb.Alloc.lbs));
  Alcotest.(check (list int)) "LA keeps both dims" [ 0; 1 ]
    (Array.to_list la.Alloc.kept)

let test_fig1_move_in_a () =
  let plan = fig1_plan () in
  let ba = buffer_named plan "l_A" in
  let events = run_copies ba.Plan.move_in in
  (* expected: every element of the read union, exactly once *)
  let reads = Dataspaces.reads_union fig1 ba.Plan.buffer.Alloc.partition in
  Alcotest.(check int) "one copy per element" (counts_exn reads)
    (List.length events);
  let distinct = List.sort_uniq compare (List.map (fun e -> e.src_idx) events) in
  Alcotest.(check int) "no duplicate loads" (List.length events)
    (List.length distinct);
  List.iter (fun e ->
    Alcotest.(check string) "src is A" "A" e.src_arr;
    Alcotest.(check string) "dst is l_A" "l_A" e.dst_arr;
    match e.src_idx, e.dst_idx with
    | [ g0; g1 ], [ l0; l1 ] ->
      Alcotest.(check int) "offset d0" (g0 - 10) l0;
      Alcotest.(check int) "offset d1" (g1 - 11) l1;
      Alcotest.(check bool) "src in union" true
        (Uset.contains_point reads (Vec.of_ints [ g0; g1 ]))
    | _ -> Alcotest.fail "rank mismatch")
    events

let test_fig1_move_out_a () =
  let plan = fig1_plan () in
  let ba = buffer_named plan "l_A" in
  let events = run_copies ba.Plan.move_out in
  (* the write space is [10,14] x [11,15]: 25 elements *)
  Alcotest.(check int) "25 stores" 25 (List.length events);
  List.iter (fun e ->
    Alcotest.(check string) "dst is A" "A" e.dst_arr;
    match e.dst_idx with
    | [ g0; g1 ] ->
      Alcotest.(check bool) "row range" true (g0 >= 10 && g0 <= 14);
      Alcotest.(check bool) "col range" true (g1 >= 11 && g1 <= 15)
    | _ -> Alcotest.fail "rank mismatch")
    events

let test_fig1_move_in_b () =
  let plan = fig1_plan () in
  let bb = buffer_named plan "l_B" in
  let events = run_copies bb.Plan.move_in in
  (* read space of B is [20,28] x [11,20]: 90 elements *)
  Alcotest.(check int) "90 loads" 90 (List.length events);
  let events_out = run_copies bb.Plan.move_out in
  (* write space of B is [10,14] x [21,34]: 70 elements *)
  Alcotest.(check int) "70 stores" 70 (List.length events_out)

let test_fig1_local_ref () =
  let plan = fig1_plan () in
  let s2 = Prog.find_stmt fig1 2 in
  let a_read =
    List.find (fun (a : Prog.access) -> a.Prog.array = "A") s2.Prog.reads
  in
  match Plan.local_ref plan s2 a_read with
  | None -> Alcotest.fail "A[i][k] should be buffered"
  | Some r ->
    Alcotest.(check string) "buffer name" "l_A" r.Ast.array;
    (* at i=12, k=15 the local element is (2, 4) *)
    let env n =
      match n with
      | "i" -> Zint.of_int 12
      | "k" -> Zint.of_int 15
      | _ -> failwith n
    in
    Alcotest.(check (list int)) "remapped indices" [ 2; 4 ]
      (Array.to_list
         (Array.map (fun e -> Zint.to_int_exn (Ast.eval env e)) r.Ast.indices))

let test_gpu_mode_skips () =
  (* algorithm-faithful partitioning on the GPU: the singleton diagonal
     read of A has no beneficial reuse and stays in global memory *)
  let plan = Plan.plan_block ~arch:`Gpu fig1 in
  Alcotest.(check int) "three buffers" 3 (List.length plan.Plan.buffered);
  Alcotest.(check int) "one skipped" 1 (List.length plan.Plan.skipped);
  let part, _ = List.hd plan.Plan.skipped in
  Alcotest.(check string) "skipped is A's singleton" "A"
    part.Dataspaces.array

(* --- dependences --------------------------------------------------------- *)

let test_fig1_flow_dep () =
  let deps = Deps.analyze fig1 in
  let flows =
    List.filter (fun (d : Deps.t) -> d.Deps.kind = Deps.Flow) deps
  in
  Alcotest.(check bool) "S1 -> S2 flow dep on A" true
    (List.exists (fun (d : Deps.t) ->
       d.Deps.src.Prog.name = "S1" && d.Deps.dst.Prog.name = "S2"
       && d.Deps.src_access.Prog.array = "A")
       flows);
  (* no B self-flow: writes touch rows [10,14], reads rows [20,28] *)
  Alcotest.(check bool) "no S2 -> S2 flow dep on B" false
    (List.exists (fun (d : Deps.t) ->
       d.Deps.src.Prog.name = "S2" && d.Deps.dst.Prog.name = "S2"
       && d.Deps.src_access.Prog.array = "B")
       flows)

let test_movement_optimizer () =
  (* S: for i in 0..9 { T1: A[i] = i;  T2: C[i] = A[i] } — with the
     producer inside the block nothing of A needs moving in *)
  let w_a =
    Prog.mk_access ~array:"A" ~kind:Prog.Write ~rows:[ [ 1; 0 ] ]
  in
  let r_a = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 1; 0 ] ] in
  let w_c = Prog.mk_access ~array:"C" ~kind:Prog.Write ~rows:[ [ 1; 0 ] ] in
  let t1 =
    Build.stmt ~id:1 ~name:"T1" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (0, 9) ])
      ~writes:[ w_a ]
      ~body:(w_a, Prog.Eiter 0)
      ~beta:[ 0; 0 ] ()
  in
  let t2 =
    Build.stmt ~id:2 ~name:"T2" ~np:0 ~depth:1
      ~domain:(Build.box_domain ~np:0 [ (0, 9) ])
      ~writes:[ w_c ] ~reads:[ r_a ]
      ~body:(w_c, Prog.Eref r_a)
      ~beta:[ 0; 1 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays = [ Build.array1 "A" 16 ~np:0; Build.array1 "C" 16 ~np:0 ];
      stmts = [ t1; t2 ] }
  in
  let deps = Deps.analyze p in
  let parts = Dataspaces.partition_array p "A" in
  Alcotest.(check int) "one partition" 1 (List.length parts);
  let buf = Alloc.build p (List.hd parts) in
  let needed = Movement.optimized_move_in_data p deps buf in
  Alcotest.(check bool) "nothing to move in" true (Uset.is_empty needed);
  (* without the producer, everything is needed *)
  let p_only_read = { p with Prog.stmts = [ t2 ] } in
  let parts' = Dataspaces.partition_array p_only_read "A" in
  let buf' = Alloc.build p_only_read (List.hd parts') in
  let needed' =
    Movement.optimized_move_in_data p_only_read (Deps.analyze p_only_read) buf'
  in
  Alcotest.(check int) "all 10 elements needed" 10 (counts_exn needed')

let test_volume_bounds () =
  let parts = Dataspaces.partition_array fig1 "B" in
  let env _ = failwith "no params" in
  let total =
    List.fold_left (fun acc part ->
      match Movement.volume_upper_bound fig1 part ~kind:`Read ~env with
      | Some v -> acc + Zint.to_int_exn v
      | None -> Alcotest.fail "bounded space must be countable")
      0 parts
  in
  (* read space of B is [20,28] x [11,20]: box of 90 *)
  Alcotest.(check int) "Vin(B) = 90" 90 total

let test_volume_unknown_propagates () =
  (* regression: an unbounded group used to contribute zero, silently
     underestimating Vin; the unknown must propagate as None *)
  let r_a = Prog.mk_access ~array:"A" ~kind:Prog.Read ~rows:[ [ 1; 0 ] ] in
  let s =
    Build.stmt ~id:1 ~name:"U" ~np:0 ~depth:1
      ~domain:(Build.domain_rows ~np:0 ~depth:1 [ [ 1; 0 ] ]) (* i >= 0 only *)
      ~reads:[ r_a ]
      ~beta:[ 0; 0 ] ()
  in
  let p =
    { Prog.params = [||];
      arrays = [ Build.array1 "A" 16 ~np:0 ];
      stmts = [ s ] }
  in
  let parts = Dataspaces.partition_array p "A" in
  Alcotest.(check int) "one partition" 1 (List.length parts);
  let env _ = failwith "no params" in
  (match
     Movement.volume_upper_bound p (List.hd parts) ~kind:`Read ~env
   with
   | None -> ()
   | Some v ->
     Alcotest.failf "unbounded group must yield None, got %d"
       (Zint.to_int_exn v))

(* --- validation of the program itself ------------------------------------ *)

let test_fig1_validates () =
  match Prog.validate fig1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "core"
    [
      ( "dataspaces",
        [
          Alcotest.test_case "spaces of array" `Quick test_spaces_of_array;
          Alcotest.test_case "partitions" `Quick test_partitions;
          Alcotest.test_case "partition order" `Quick test_partition_order;
          Alcotest.test_case "program validates" `Quick test_fig1_validates;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "rank criterion" `Quick test_reuse_rank;
          Alcotest.test_case "per-partition" `Quick test_reuse_partitions;
          Alcotest.test_case "constant overlap δ" `Quick
            test_reuse_constant_overlap;
          Alcotest.test_case "three-way overlap not double-counted" `Quick
            test_overlap_three_way;
          Alcotest.test_case "truncated count is unknown" `Quick
            test_reuse_truncated_count_is_unknown;
          Alcotest.test_case "empty partition" `Quick test_empty_partition;
          Alcotest.test_case "zero-volume union" `Quick test_zero_volume_union;
          Alcotest.test_case "fraction exactly δ" `Quick
            test_fraction_exactly_delta;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "buffer extents" `Quick test_fig1_buffers;
          Alcotest.test_case "move-in A" `Quick test_fig1_move_in_a;
          Alcotest.test_case "move-out A" `Quick test_fig1_move_out_a;
          Alcotest.test_case "move in/out B" `Quick test_fig1_move_in_b;
          Alcotest.test_case "access remap" `Quick test_fig1_local_ref;
          Alcotest.test_case "gpu skips non-beneficial" `Quick
            test_gpu_mode_skips;
        ] );
      ( "movement",
        [
          Alcotest.test_case "flow deps found" `Quick test_fig1_flow_dep;
          Alcotest.test_case "optimizer (3.1.4)" `Quick test_movement_optimizer;
          Alcotest.test_case "volume bounds" `Quick test_volume_bounds;
          Alcotest.test_case "unknown volume propagates" `Quick
            test_volume_unknown_propagates;
        ] );
    ]
