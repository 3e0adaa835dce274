(* Tests for the polyhedral layer: exact simplex, Fourier–Motzkin,
   affine images, unions, and integer-point counting. *)

open Emsc_arith
open Emsc_linalg
open Emsc_poly

let z = Zint.of_int
let vi = Vec.of_ints

(* Helper: a 2-D box lo <= x,y <= hi. *)
let box2 (xl, xh) (yl, yh) =
  Poly.of_ineqs ~dim:2
    [ [ 1; 0; -xl ]; [ -1; 0; xh ]; [ 0; 1; -yl ]; [ 0; -1; yh ] ]

let interval lo hi = Poly.of_ineqs ~dim:1 [ [ 1; -lo ]; [ -1; hi ] ]

let count_exn p =
  match Count.count_poly p with
  | Count.Exact n -> Zint.to_int_exn n
  | Count.More_than _ | Count.Unbounded -> Alcotest.fail "expected exact count"

let count_uset_exn u =
  match Count.count_uset u with
  | Count.Exact n -> Zint.to_int_exn n
  | Count.More_than _ | Count.Unbounded -> Alcotest.fail "expected exact count"

(* --- simplex ----------------------------------------------------------- *)

let test_lp_basic () =
  (* min x + y s.t. x >= 1, y >= 2 *)
  let ineqs = [ vi [ 1; 0; -1 ]; vi [ 0; 1; -2 ] ] in
  let obj = [| Q.one; Q.one; Q.zero |] in
  match Simplex.minimize ~dim:2 ~eqs:[] ~ineqs ~obj with
  | Simplex.Optimal (v, pt) ->
    Alcotest.(check string) "objective" "3" (Q.to_string v);
    Alcotest.(check string) "x" "1" (Q.to_string pt.(0));
    Alcotest.(check string) "y" "2" (Q.to_string pt.(1))
  | _ -> Alcotest.fail "expected optimal"

let test_lp_fractional () =
  (* max x s.t. 2x <= 7, x >= 0 : optimum 7/2 *)
  let ineqs = [ vi [ -2; 7 ]; vi [ 1; 0 ] ] in
  let obj = [| Q.one; Q.zero |] in
  match Simplex.maximize ~dim:1 ~eqs:[] ~ineqs ~obj with
  | Simplex.Optimal (v, _) ->
    Alcotest.(check string) "objective" "7/2" (Q.to_string v)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let ineqs = [ vi [ 1; -3 ]; vi [ -1; 1 ] ] in
  (* x >= 3 and x <= 1 *)
  let obj = [| Q.one; Q.zero |] in
  Alcotest.(check bool) "infeasible" true
    (Simplex.minimize ~dim:1 ~eqs:[] ~ineqs ~obj = Simplex.Infeasible)

let test_lp_unbounded () =
  let ineqs = [ vi [ 1; 0 ] ] in
  (* x >= 0, maximize x *)
  let obj = [| Q.one; Q.zero |] in
  Alcotest.(check bool) "unbounded" true
    (Simplex.maximize ~dim:1 ~eqs:[] ~ineqs ~obj = Simplex.Unbounded)

let test_lp_equalities () =
  (* min y s.t. x + y = 10, x <= 4 → x=4, y=6 *)
  let eqs = [ vi [ 1; 1; -10 ] ] in
  let ineqs = [ vi [ -1; 0; 4 ] ] in
  let obj = [| Q.zero; Q.one; Q.zero |] in
  match Simplex.minimize ~dim:2 ~eqs ~ineqs ~obj with
  | Simplex.Optimal (v, _) -> Alcotest.(check string) "min y" "6" (Q.to_string v)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_negative_vars () =
  (* variables are free: min x s.t. x >= -5 *)
  let ineqs = [ vi [ 1; 5 ] ] in
  let obj = [| Q.one; Q.zero |] in
  match Simplex.minimize ~dim:1 ~eqs:[] ~ineqs ~obj with
  | Simplex.Optimal (v, _) -> Alcotest.(check string) "min" "-5" (Q.to_string v)
  | _ -> Alcotest.fail "expected optimal"

(* --- polyhedra --------------------------------------------------------- *)

let test_empty_detection () =
  Alcotest.(check bool) "box non-empty" false (Poly.is_empty (box2 (0, 5) (0, 5)));
  Alcotest.(check bool) "contradiction" true
    (Poly.is_empty (Poly.of_ineqs ~dim:1 [ [ 1; -3 ]; [ -1; 1 ] ]));
  Alcotest.(check bool) "bottom" true (Poly.is_empty (Poly.bottom 3));
  (* rationally non-empty but integrally empty on an equality: 2x = 1 *)
  let p = Poly.make ~dim:1 ~eqs:[ vi [ 2; -1 ] ] ~ineqs:[] in
  Alcotest.(check bool) "2x=1 integer-tightened to empty" true
    (Poly.is_empty p)

let test_integer_tightening () =
  (* 2x >= 1 tightens to x >= 1 *)
  let p = Poly.of_ineqs ~dim:1 [ [ 2; -1 ] ] in
  let lo, _ = Poly.var_bounds_int p 0 in
  Alcotest.(check int) "tightened lb" 1 (Zint.to_int_exn (Option.get lo))

let test_fm_projection () =
  (* triangle 0 <= y <= x <= 10, project out y → 0 <= x <= 10 *)
  let tri =
    Poly.of_ineqs ~dim:2 [ [ 0; 1; 0 ]; [ 1; -1; 0 ]; [ -1; 0; 10 ] ]
  in
  let proj = Poly.eliminate_dim tri 1 in
  Alcotest.(check int) "dim" 1 (Poly.dim proj);
  let lo, hi = Poly.var_bounds_int proj 0 in
  Alcotest.(check int) "lb" 0 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "ub" 10 (Zint.to_int_exn (Option.get hi))

let test_fm_uses_equalities () =
  (* x = 2y and 0 <= y <= 3; eliminating y gives 0 <= x <= 6 (even) *)
  let p =
    Poly.make ~dim:2
      ~eqs:[ vi [ 1; -2; 0 ] ]
      ~ineqs:[ vi [ 0; 1; 0 ]; vi [ 0; -1; 3 ] ]
  in
  let proj = Poly.eliminate_dim p 1 in
  let lo, hi = Poly.var_bounds_int proj 0 in
  Alcotest.(check int) "lb" 0 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "ub" 6 (Zint.to_int_exn (Option.get hi))

let test_image_shift () =
  (* image of [0,5] under y = x + 3 is [3,8] *)
  let f = Mat.of_ints [ [ 1; 3 ] ] in
  let img = Poly.image (interval 0 5) f in
  let lo, hi = Poly.var_bounds_int img 0 in
  Alcotest.(check int) "lb" 3 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "ub" 8 (Zint.to_int_exn (Option.get hi))

let test_image_projection_map () =
  (* image of box [0,4]x[0,9] under y = i (drop j) is [0,4] *)
  let f = Mat.of_ints [ [ 1; 0; 0 ] ] in
  let img = Poly.image (box2 (0, 4) (0, 9)) f in
  Alcotest.(check int) "dim" 1 (Poly.dim img);
  let lo, hi = Poly.var_bounds_int img 0 in
  Alcotest.(check int) "lb" 0 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "ub" 4 (Zint.to_int_exn (Option.get hi))

let test_image_sum_map () =
  (* image of [10,14]x[10,14] under a = i + j is [20,28]
     — the A[i+j][...] reference of the paper's Figure 1 *)
  let f = Mat.of_ints [ [ 1; 1; 0 ] ] in
  let img = Poly.image (box2 (10, 14) (10, 14)) f in
  let lo, hi = Poly.var_bounds_int img 0 in
  Alcotest.(check int) "lb" 20 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "ub" 28 (Zint.to_int_exn (Option.get hi))

let test_preimage () =
  (* preimage of [0,10] under y = 2x is  0 <= 2x <= 10 → x in [0,5] *)
  let f = Mat.of_ints [ [ 2; 0 ] ] in
  let pre = Poly.preimage (interval 0 10) f in
  let lo, hi = Poly.var_bounds_int pre 0 in
  Alcotest.(check int) "lb" 0 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "ub" 5 (Zint.to_int_exn (Option.get hi))

let test_contains_point () =
  let p = box2 (0, 5) (0, 5) in
  Alcotest.(check bool) "inside" true (Poly.contains_point p (vi [ 3; 3 ]));
  Alcotest.(check bool) "boundary" true (Poly.contains_point p (vi [ 0; 5 ]));
  Alcotest.(check bool) "outside" false (Poly.contains_point p (vi [ 6; 3 ]))

let test_subset () =
  Alcotest.(check bool) "box in bigger box" true
    (Poly.is_subset (box2 (1, 4) (1, 4)) (box2 (0, 5) (0, 5)));
  Alcotest.(check bool) "not subset" false
    (Poly.is_subset (box2 (0, 6) (0, 5)) (box2 (0, 5) (0, 5)));
  Alcotest.(check bool) "empty in anything" true
    (Poly.is_subset (Poly.bottom 2) (box2 (0, 1) (0, 1)))

let test_remove_redundant () =
  (* x >= 0, x >= -5 (redundant), x <= 10 *)
  let p = Poly.of_ineqs ~dim:1 [ [ 1; 0 ]; [ 1; 5 ]; [ -1; 10 ] ] in
  let r = Poly.remove_redundant p in
  let _, ineqs = Poly.constraints r in
  Alcotest.(check int) "constraint count" 2 (List.length ineqs);
  Alcotest.(check bool) "same set" true (Poly.equal_set p r)

let test_implicit_equality () =
  (* x >= 3 and x <= 3 → affine hull contains x = 3 *)
  let p = Poly.of_ineqs ~dim:1 [ [ 1; -3 ]; [ -1; 3 ] ] in
  let hull = Poly.affine_hull p in
  Alcotest.(check int) "one equality" 1 (List.length hull);
  Alcotest.(check (list int)) "x - 3 = 0" [ 1; -3 ]
    (Vec.to_ints_exn (List.hd hull))

let test_fix_dim () =
  let p = box2 (0, 5) (2, 8) in
  let q = Poly.fix_dim p 0 (z 3) in
  Alcotest.(check int) "dim" 1 (Poly.dim q);
  Alcotest.(check int) "count" 7 (count_exn q);
  let r = Poly.fix_dim p 0 (z 99) in
  Alcotest.(check bool) "outside is empty" true (Poly.is_empty r)

let test_translate () =
  let p = Poly.translate (box2 (0, 5) (0, 5)) (vi [ 10; 20 ]) in
  Alcotest.(check bool) "translated" true
    (Poly.contains_point p (vi [ 10; 20 ]));
  Alcotest.(check bool) "old origin gone" false
    (Poly.contains_point p (vi [ 0; 0 ]))

(* --- uset --------------------------------------------------------------- *)

let test_uset_subtract () =
  let a = Uset.of_poly (interval 0 10) in
  let b = Uset.of_poly (interval 3 5) in
  let d = Uset.subtract a b in
  Alcotest.(check int) "count" 8 (count_uset_exn d);
  Alcotest.(check bool) "3 removed" false (Uset.contains_point d (vi [ 3 ]));
  Alcotest.(check bool) "6 kept" true (Uset.contains_point d (vi [ 6 ]))

let test_uset_disjoint () =
  (* two overlapping intervals: [0,10] ∪ [5,15] has 16 points *)
  let u = Uset.union (Uset.of_poly (interval 0 10)) (Uset.of_poly (interval 5 15)) in
  Alcotest.(check int) "disjoint count" 16 (count_uset_exn u);
  let d = Uset.make_disjoint u in
  (* pieces pairwise disjoint *)
  let rec pairwise = function
    | [] -> true
    | p :: rest ->
      List.for_all (fun q -> Poly.is_empty (Poly.intersect p q)) rest
      && pairwise rest
  in
  Alcotest.(check bool) "pairwise disjoint" true (pairwise (Uset.pieces d))

let test_uset_overlap () =
  let a = Uset.of_poly (interval 0 10) and b = Uset.of_poly (interval 10 20) in
  let c = Uset.of_poly (interval 11 20) in
  Alcotest.(check bool) "touching overlap" true (Uset.overlap a b);
  Alcotest.(check bool) "no overlap" false (Uset.overlap a c)

let test_uset_bounds () =
  let u =
    Uset.union (Uset.of_poly (interval 0 10)) (Uset.of_poly (interval 20 30))
  in
  (match Uset.bounding_box u with
   | Some box ->
     let lo, hi = box.(0) in
     Alcotest.(check int) "lb" 0 (Zint.to_int_exn lo);
     Alcotest.(check int) "ub" 30 (Zint.to_int_exn hi)
   | None -> Alcotest.fail "expected bounds")

let test_uset_template_hull () =
  let u =
    Uset.union
      (Uset.of_poly (box2 (0, 2) (0, 2)))
      (Uset.of_poly (box2 (5, 8) (1, 3)))
  in
  let hull = Uset.template_hull u in
  Alcotest.(check bool) "covers pieces" true
    (Uset.is_subset u (Uset.of_poly hull));
  (* hull of boxes along axis directions is the bounding box *)
  let lo, hi = Poly.var_bounds_int hull 0 in
  Alcotest.(check int) "x lb" 0 (Zint.to_int_exn (Option.get lo));
  Alcotest.(check int) "x ub" 8 (Zint.to_int_exn (Option.get hi))

let test_uset_affine_hull () =
  (* two segments on the line y = x → hull contains x - y = 0 *)
  let seg a b =
    Poly.make ~dim:2
      ~eqs:[ vi [ 1; -1; 0 ] ]
      ~ineqs:[ vi [ 1; 0; -a ]; vi [ -1; 0; b ] ]
  in
  let u = Uset.union (Uset.of_poly (seg 0 3)) (Uset.of_poly (seg 10 12)) in
  let hull = Uset.affine_hull u in
  Alcotest.(check int) "one equality" 1 (List.length hull);
  let e = List.hd hull in
  (* e is ±(x - y) *)
  Alcotest.(check bool) "is x=y" true
    (Vec.equal (Vec.normalize e) (vi [ 1; -1; 0 ])
     || Vec.equal (Vec.normalize e) (vi [ -1; 1; 0 ]))

(* --- counting ------------------------------------------------------------ *)

let test_count_box () =
  Alcotest.(check int) "6x6 box" 36 (count_exn (box2 (0, 5) (0, 5)));
  Alcotest.(check int) "interval" 11 (count_exn (interval 0 10));
  Alcotest.(check int) "empty" 0 (count_exn (Poly.bottom 2))

let test_count_triangle () =
  (* 0 <= y <= x <= 4: 5+4+3+2+1 = 15 points *)
  let tri = Poly.of_ineqs ~dim:2 [ [ 0; 1; 0 ]; [ 1; -1; 0 ]; [ -1; 0; 4 ] ] in
  Alcotest.(check int) "triangle" 15 (count_exn tri)

let test_count_limit () =
  match Count.count_poly ~limit:10 (box2 (0, 99) (0, 99)) with
  | Count.More_than _ -> ()
  | _ -> Alcotest.fail "expected limit hit"

let test_count_unbounded () =
  let p = Poly.of_ineqs ~dim:1 [ [ 1; 0 ] ] in
  Alcotest.(check bool) "unbounded" true (Count.count_poly p = Count.Unbounded)

(* --- projection counter against the per-point counter --------------------- *)

(* The per-point counter [Count.count_poly] replaced, kept here as the
   differential reference: one emptiness LP per integer point, always
   branching on the narrowest dimension, and [Unbounded] as soon as a
   non-empty slice has an unbounded dimension. *)
let per_point_count ?limit p =
  let exception Hit_limit of Zint.t in
  let exception Is_unbounded in
  let narrowest_dim p =
    let best = ref (-1) and best_width = ref Zint.zero in
    for i = 0 to Poly.dim p - 1 do
      match Poly.var_bounds_int p i with
      | Some lo, Some hi ->
        let w = Zint.sub hi lo in
        if !best < 0 || Zint.compare w !best_width < 0 then begin
          best := i;
          best_width := w
        end
      | _ -> raise Is_unbounded
    done;
    !best
  in
  let total = ref Zint.zero in
  let rec go p =
    if Poly.is_empty p then ()
    else if Poly.dim p = 0 then begin
      total := Zint.add !total Zint.one;
      match limit with
      | Some l when Zint.compare !total (z l) > 0 -> raise (Hit_limit !total)
      | Some _ | None -> ()
    end
    else begin
      let j = narrowest_dim p in
      match Poly.var_bounds_int p j with
      | Some lo, Some hi ->
        let v = ref lo in
        while Zint.compare !v hi <= 0 do
          go (Poly.fix_dim p j !v);
          v := Zint.add !v Zint.one
        done
      | _ -> raise Is_unbounded
    end
  in
  match go p with
  | () -> Count.Exact !total
  | exception Hit_limit n -> Count.More_than n
  | exception Is_unbounded -> Count.Unbounded

let count_result =
  Alcotest.testable
    (fun fmt -> function
      | Count.Exact n -> Format.fprintf fmt "Exact %s" (Zint.to_string n)
      | Count.More_than n -> Format.fprintf fmt "More_than %s" (Zint.to_string n)
      | Count.Unbounded -> Format.fprintf fmt "Unbounded")
    ( = )

let check_same ?limit name p =
  Alcotest.check count_result name (per_point_count ?limit p)
    (Count.count_poly ?limit p)

(* Random polyhedra of dimension 1..3: each variable gets a lower and
   an upper bound in [-4, 4] with probability [keep] each, plus up to
   three random cuts and, half the time, a random equality. *)
let random_poly st ~keep =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let n = int 1 3 in
  let row coeffs c = Vec.of_ints (coeffs @ [ c ]) in
  let axis i sign c = row (List.init n (fun k -> if k = i then sign else 0)) c in
  let bounds =
    List.concat
      (List.init n (fun i ->
         (if Random.State.float st 1.0 < keep then [ axis i 1 (int 0 4) ] else [])
         @ if Random.State.float st 1.0 < keep then [ axis i (-1) (int 0 4) ]
           else []))
  in
  let random_row () = row (List.init n (fun _ -> int (-3) 3)) (int (-6) 6) in
  let cuts = List.init (int 0 3) (fun _ -> random_row ()) in
  let eqs = if Random.State.bool st then [ random_row () ] else [] in
  Poly.make ~dim:n ~eqs ~ineqs:(bounds @ cuts)

let test_count_differential_bounded () =
  let st = Random.State.make [| 7 |] in
  for i = 1 to 300 do
    check_same (Printf.sprintf "bounded #%d" i) (random_poly st ~keep:1.0)
  done

let test_count_differential_unbounded () =
  let st = Random.State.make [| 11 |] in
  for i = 1 to 300 do
    check_same (Printf.sprintf "partly bounded #%d" i) (random_poly st ~keep:0.8)
  done;
  check_same "half-line" (Poly.of_ineqs ~dim:1 [ [ 1; 0 ] ]);
  check_same "strip" (Poly.of_ineqs ~dim:2 [ [ 1; 0; 0 ]; [ -1; 0; 3 ] ])

(* Rationally non-empty, no integer point: the equality's coefficient
   does not divide the slice, or two equalities meet at a half-integer
   point.  The last two also have an unbounded dimension, where the
   projection collapses before the unbounded level is reached. *)
let test_count_differential_lattice_holes () =
  let mk ~dim ~eqs ~ineqs =
    Poly.make ~dim ~eqs:(List.map vi eqs) ~ineqs:(List.map vi ineqs)
  in
  let cases =
    [ ("3y = x, 1 <= x <= 2", mk ~dim:2 ~eqs:[ [ -1; 3; 0 ] ]
         ~ineqs:[ [ 1; 0; -1 ]; [ -1; 0; 2 ] ]);
      ("3y = x, 0 <= x <= 9", mk ~dim:2 ~eqs:[ [ -1; 3; 0 ] ]
         ~ineqs:[ [ 1; 0; 0 ]; [ -1; 0; 9 ] ]);
      ("2z = x + y + 1 on a box", mk ~dim:3 ~eqs:[ [ 1; 1; -2; 1 ] ]
         ~ineqs:[ [ 1; 0; 0; 0 ]; [ -1; 0; 0; 0 ]; [ 0; 1; 0; 0 ];
                  [ 0; -1; 0; 0 ]; [ 0; 0; 1; 3 ]; [ 0; 0; -1; 3 ] ]);
      ("y + z = 0, y - z = 1, 0 <= x <= 3",
       mk ~dim:3 ~eqs:[ [ 0; 1; 1; 0 ]; [ 0; 1; -1; -1 ] ]
         ~ineqs:[ [ 1; 0; 0; 0 ]; [ -1; 0; 0; 3 ] ]);
      ("y + z = 0, y - z = 1, x free",
       mk ~dim:3 ~eqs:[ [ 0; 1; 1; 0 ]; [ 0; 1; -1; -1 ] ] ~ineqs:[]);
      ("x + y = 0, x - y = 1, z >= 0",
       mk ~dim:3 ~eqs:[ [ 1; 1; 0; 0 ]; [ 1; -1; 0; -1 ] ]
         ~ineqs:[ [ 0; 0; 1; 0 ] ]) ]
  in
  List.iter (fun (name, p) -> check_same name p) cases;
  Alcotest.check count_result "no integer point" (Count.Exact Zint.zero)
    (Count.count_poly (snd (List.hd cases)))

let test_count_differential_limit () =
  let st = Random.State.make [| 13 |] in
  for i = 1 to 200 do
    let p = random_poly st ~keep:0.9 in
    let limit = List.nth [ 0; 1; 3; 10; 40 ] (i mod 5) in
    check_same ~limit (Printf.sprintf "limit %d #%d" limit i) p
  done;
  Alcotest.check count_result "box past the limit" (Count.More_than (z 11))
    (Count.count_poly ~limit:10 (box2 (0, 99) (0, 99)));
  check_same ~limit:10 "box past the limit" (box2 (0, 99) (0, 99));
  check_same ~limit:0 "a point at limit 0" (interval 4 4)

(* --- properties ----------------------------------------------------------- *)

let small_box_gen =
  QCheck.map
    (fun (a, w, b, h) -> ((a, a + w), (b, b + h)))
    QCheck.(quad (int_range (-10) 10) (int_range 0 8) (int_range (-10) 10)
              (int_range 0 8))

let prop_fm_sound =
  QCheck.Test.make ~name:"projection contains projected points" ~count:100
    (QCheck.pair small_box_gen (QCheck.int_range (-12) 12))
    (fun (((xl, xh), (yl, yh)), cut) ->
      (* box with a diagonal cut x + y <= cut possibly *)
      let p = Poly.add_ineq (box2 (xl, xh) (yl, yh)) (vi [ -1; -1; cut + 20 ]) in
      let proj = Poly.eliminate_dim p 1 in
      (* every integer point of p projects into proj *)
      let ok = ref true in
      for x = xl to xh do
        for y = yl to yh do
          if Poly.contains_point p (vi [ x; y ]) then
            if not (Poly.contains_point proj (vi [ x ])) then ok := false
        done
      done;
      !ok)

let prop_union_count_inclusion_exclusion =
  QCheck.Test.make ~name:"count(A∪B) = |A| + |B| - |A∩B|" ~count:60
    (QCheck.pair small_box_gen small_box_gen)
    (fun ((ax, ay), (bx, by)) ->
      let a = box2 ax ay and b = box2 bx by in
      let cnt p = count_exn p in
      let u = Uset.union (Uset.of_poly a) (Uset.of_poly b) in
      count_uset_exn u = cnt a + cnt b - cnt (Poly.intersect a b))

let prop_subtract_partitions =
  QCheck.Test.make ~name:"|A| = |A\\B| + |A∩B|" ~count:60
    (QCheck.pair small_box_gen small_box_gen)
    (fun ((ax, ay), (bx, by)) ->
      let a = box2 ax ay and b = box2 bx by in
      let diff = Uset.subtract (Uset.of_poly a) (Uset.of_poly b) in
      count_exn a = count_uset_exn diff + count_exn (Poly.intersect a b))

let prop_image_preserves_membership =
  QCheck.Test.make ~name:"image contains mapped points" ~count:60
    (QCheck.pair small_box_gen
       (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)))
    (fun ((ax, ay), (c1, c2)) ->
      let p = box2 ax ay in
      let f = Mat.of_ints [ [ c1; c2; 1 ] ] in
      let img = Poly.image p f in
      let (xl, xh), (yl, yh) = (ax, ay) in
      let ok = ref true in
      for x = xl to xh do
        for y = yl to yh do
          let v = (c1 * x) + (c2 * y) + 1 in
          if not (Poly.contains_point img (vi [ v ])) then ok := false
        done
      done;
      !ok)

let prop_template_hull_superset =
  QCheck.Test.make ~name:"template hull covers the union" ~count:40
    (QCheck.pair small_box_gen small_box_gen)
    (fun ((ax, ay), (bx, by)) ->
      let u = Uset.union (Uset.of_poly (box2 ax ay)) (Uset.of_poly (box2 bx by)) in
      Uset.is_subset u (Uset.of_poly (Uset.template_hull u)))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_fm_sound; prop_union_count_inclusion_exclusion;
        prop_subtract_partitions; prop_image_preserves_membership;
        prop_template_hull_superset ]
  in
  Alcotest.run "poly"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic lp" `Quick test_lp_basic;
          Alcotest.test_case "fractional optimum" `Quick test_lp_fractional;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "equalities" `Quick test_lp_equalities;
          Alcotest.test_case "free variables" `Quick test_lp_negative_vars;
        ] );
      ( "poly",
        [
          Alcotest.test_case "emptiness" `Quick test_empty_detection;
          Alcotest.test_case "integer tightening" `Quick test_integer_tightening;
          Alcotest.test_case "fm projection" `Quick test_fm_projection;
          Alcotest.test_case "fm equalities" `Quick test_fm_uses_equalities;
          Alcotest.test_case "image shift" `Quick test_image_shift;
          Alcotest.test_case "image projection" `Quick test_image_projection_map;
          Alcotest.test_case "image i+j (Fig 1)" `Quick test_image_sum_map;
          Alcotest.test_case "preimage" `Quick test_preimage;
          Alcotest.test_case "contains point" `Quick test_contains_point;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "remove redundant" `Quick test_remove_redundant;
          Alcotest.test_case "implicit equality" `Quick test_implicit_equality;
          Alcotest.test_case "fix dim" `Quick test_fix_dim;
          Alcotest.test_case "translate" `Quick test_translate;
        ] );
      ( "uset",
        [
          Alcotest.test_case "subtract" `Quick test_uset_subtract;
          Alcotest.test_case "disjoint decomposition" `Quick test_uset_disjoint;
          Alcotest.test_case "overlap" `Quick test_uset_overlap;
          Alcotest.test_case "bounds" `Quick test_uset_bounds;
          Alcotest.test_case "template hull" `Quick test_uset_template_hull;
          Alcotest.test_case "affine hull" `Quick test_uset_affine_hull;
        ] );
      ( "count",
        [
          Alcotest.test_case "boxes" `Quick test_count_box;
          Alcotest.test_case "triangle" `Quick test_count_triangle;
          Alcotest.test_case "limit" `Quick test_count_limit;
          Alcotest.test_case "unbounded" `Quick test_count_unbounded;
          Alcotest.test_case "per-point: bounded" `Quick
            test_count_differential_bounded;
          Alcotest.test_case "per-point: unbounded" `Quick
            test_count_differential_unbounded;
          Alcotest.test_case "per-point: lattice holes" `Quick
            test_count_differential_lattice_holes;
          Alcotest.test_case "per-point: limit" `Quick
            test_count_differential_limit;
        ] );
      ("properties", props);
    ]
