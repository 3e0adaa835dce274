(* Unit and property tests for Zint and Q.  Properties are checked
   against native-int reference results on small operands, against
   algebraic identities on large ones, and operation by operation
   against the limb arithmetic that is Zint's big case. *)

open Emsc_arith

let z = Zint.of_int
let zs = Zint.of_string

let check_z msg expected actual =
  Alcotest.(check string) msg expected (Zint.to_string actual)

(* --- Zint unit tests ------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter (fun n ->
    Alcotest.(check (option int))
      (Printf.sprintf "roundtrip %d" n)
      (Some n)
      (Zint.to_int_opt (z n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; max_int - 1; min_int + 1;
      1 lsl 31; -(1 lsl 31); (1 lsl 62) - 1 ]

let test_string_roundtrip () =
  List.iter (fun s -> check_z s s (zs s))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-99999999999999999999999999999999999999";
      "1000000000000000000000000000000000" ]

let test_add_carries () =
  check_z "carry chain"
    "18446744073709551616"
    (Zint.add (zs "18446744073709551615") Zint.one);
  check_z "negative wrap" "-1" (Zint.sub (zs "999") (zs "1000"))

let test_mul_large () =
  check_z "big square"
    "340282366920938463463374607431768211456"
    (Zint.mul (zs "18446744073709551616") (zs "18446744073709551616"))

let test_divmod_signs () =
  (* truncated semantics, like OCaml's / and mod *)
  List.iter (fun (a, b) ->
    let q, r = Zint.divmod (z a) (z b) in
    Alcotest.(check int) (Printf.sprintf "%d / %d" a b) (a / b)
      (Zint.to_int_exn q);
    Alcotest.(check int) (Printf.sprintf "%d mod %d" a b) (a mod b)
      (Zint.to_int_exn r))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (100, 10); (99, 100) ]

let test_fdiv_cdiv () =
  List.iter (fun (a, b, fd, cd) ->
    Alcotest.(check int) (Printf.sprintf "fdiv %d %d" a b) fd
      (Zint.to_int_exn (Zint.fdiv (z a) (z b)));
    Alcotest.(check int) (Printf.sprintf "cdiv %d %d" a b) cd
      (Zint.to_int_exn (Zint.cdiv (z a) (z b))))
    [ (7, 2, 3, 4); (-7, 2, -4, -3); (7, -2, -4, -3); (-7, -2, 3, 4);
      (6, 3, 2, 2); (-6, 3, -2, -2) ]

let test_gcd () =
  check_z "gcd" "6" (Zint.gcd (z 54) (z (-24)));
  check_z "gcd with zero" "7" (Zint.gcd (z 0) (z 7));
  check_z "gcd zero zero" "0" (Zint.gcd Zint.zero Zint.zero);
  check_z "lcm" "36" (Zint.lcm (z 12) (z (-18)))

let test_pow () =
  check_z "2^100" "1267650600228229401496703205376" (Zint.pow (z 2) 100);
  check_z "x^0" "1" (Zint.pow (z 12345) 0);
  check_z "(-3)^3" "-27" (Zint.pow (z (-3)) 3)

let test_big_division () =
  let a = zs "123456789123456789123456789123456789" in
  let b = zs "987654321987654321" in
  let q, r = Zint.divmod a b in
  check_z "reconstruct" (Zint.to_string a) (Zint.add (Zint.mul q b) r);
  Alcotest.(check bool) "remainder in range" true
    (Zint.compare (Zint.abs r) (Zint.abs b) < 0)

let test_shift_left () =
  check_z "1 << 100" "1267650600228229401496703205376"
    (Zint.shift_left Zint.one 100);
  check_z "5 << 31" (Zint.to_string (Zint.mul (z 5) (z (1 lsl 31))))
    (Zint.shift_left (z 5) 31)

let test_compare_total_order () =
  let values =
    [ zs "-100000000000000000000"; z (-5); Zint.zero; z 3;
      zs "99999999999999999999" ]
  in
  List.iteri (fun i a ->
    List.iteri (fun j b ->
      Alcotest.(check int)
        (Printf.sprintf "cmp %d %d" i j)
        (compare i j)
        (Zint.compare a b))
      values)
    values

(* --- Zint properties -------------------------------------------------- *)

let small_int = QCheck.int_range (-1_000_000) 1_000_000

let big_pair =
  (* random bignums built from several int factors to exceed one limb *)
  QCheck.map
    (fun (a, b, c) ->
      Zint.add (Zint.mul (Zint.mul (z a) (z b)) (z c)) (z a))
    (QCheck.triple small_int small_int small_int)

let prop_add_matches_int =
  QCheck.Test.make ~name:"zint add matches int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) -> Zint.to_int_exn (Zint.add (z a) (z b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"zint mul matches int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) -> Zint.to_int_exn (Zint.mul (z a) (z b)) = a * b)

let prop_divmod_reconstruct =
  QCheck.Test.make ~name:"zint divmod reconstructs" ~count:500
    (QCheck.pair big_pair big_pair)
    (fun (a, b) ->
      QCheck.assume (not (Zint.is_zero b));
      let q, r = Zint.divmod a b in
      Zint.equal a (Zint.add (Zint.mul q b) r)
      && Zint.compare (Zint.abs r) (Zint.abs b) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"zint string roundtrip" ~count:300 big_pair
    (fun a -> Zint.equal a (Zint.of_string (Zint.to_string a)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300
    (QCheck.pair big_pair big_pair)
    (fun (a, b) ->
      let g = Zint.gcd a b in
      if Zint.is_zero g then Zint.is_zero a && Zint.is_zero b
      else
        Zint.is_zero (Zint.rem a g) && Zint.is_zero (Zint.rem b g))

let prop_mul_associative =
  QCheck.Test.make ~name:"mul associative" ~count:200
    (QCheck.triple big_pair big_pair big_pair)
    (fun (a, b, c) ->
      Zint.equal (Zint.mul a (Zint.mul b c)) (Zint.mul (Zint.mul a b) c))

let prop_fdiv_floor =
  QCheck.Test.make ~name:"fdiv is floor" ~count:500
    (QCheck.pair small_int small_int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      Zint.to_int_exn (Zint.fdiv (z a) (z b))
      = int_of_float (Float.floor (float_of_int a /. float_of_int b)))

(* --- Zint against Limbs ------------------------------------------------- *)

(* Zint holds a value that fits an int as that int and falls back to
   Limbs on overflow, so the interesting operands sit at the int
   boundaries: 0, +-1, +-2, +-2^31, +-2^62, max_int, min_int, and
   products of those just outside the int range. *)

let edges =
  [ 0; 1; -1; 2; -2; 1 lsl 31; -(1 lsl 31); (1 lsl 31) - 1;
    1 - (1 lsl 31); 3037000499; -3037000499; 1 lsl 61; -(1 lsl 61);
    max_int; min_int; max_int - 1; min_int + 1 ]

let limbs_gen =
  let open QCheck.Gen in
  let lz = Limbs.of_int in
  let near_edge =
    map2 (fun e d -> Limbs.add (lz e) (lz d)) (oneofl edges) (int_range (-2) 2)
  in
  let edge_product =
    map3 (fun a b d -> Limbs.add (Limbs.mul (lz a) (lz b)) (lz d))
      (oneofl edges) (oneofl edges) (int_range (-2) 2)
  in
  frequency
    [ (4, near_edge); (2, edge_product); (2, map lz int);
      (2, map lz (int_range (-1000) 1000)) ]

let limbs_arb = QCheck.make ~print:Limbs.to_string limbs_gen
let zint_of_limbs l = Zint.of_string (Limbs.to_string l)

(* reference derived operations, computed in limbs only *)
let limbs_fdiv a b =
  let q, r = Limbs.divmod a b in
  if Limbs.sign r <> 0 && Limbs.sign r <> Limbs.sign b then
    Limbs.sub q (Limbs.of_int 1)
  else q

let limbs_cdiv a b =
  let q, r = Limbs.divmod a b in
  if Limbs.sign r <> 0 && Limbs.sign r = Limbs.sign b then
    Limbs.add q (Limbs.of_int 1)
  else q

let rec limbs_gcd a b =
  if Limbs.is_zero b then Limbs.abs a else limbs_gcd b (snd (Limbs.divmod a b))

(* every result must equal the limb result and be in canonical form *)
let agree name r expected =
  if not (Zint.is_canonical r) then
    QCheck.Test.fail_reportf "%s: %s held in limbs although it fits an int"
      name (Zint.to_string r);
  if Zint.to_string r <> Limbs.to_string expected then
    QCheck.Test.fail_reportf "%s: got %s, limbs say %s" name (Zint.to_string r)
      (Limbs.to_string expected)

let prop_zint_matches_limbs =
  QCheck.Test.make ~name:"zint matches limbs at the int boundaries"
    ~count:3000 (QCheck.pair limbs_arb limbs_arb)
    (fun (la, lb) ->
      let a = zint_of_limbs la and b = zint_of_limbs lb in
      agree "operand" a la;
      agree "add" (Zint.add a b) (Limbs.add la lb);
      agree "sub" (Zint.sub a b) (Limbs.sub la lb);
      agree "mul" (Zint.mul a b) (Limbs.mul la lb);
      agree "neg" (Zint.neg a) (Limbs.neg la);
      agree "abs" (Zint.abs a) (Limbs.abs la);
      agree "gcd" (Zint.gcd a b) (limbs_gcd la lb);
      agree "shift_left" (Zint.shift_left a 1) (Limbs.shift_left la 1);
      agree "shift_left 33" (Zint.shift_left a 33) (Limbs.shift_left la 33);
      if Zint.compare a b <> Limbs.compare la lb then
        QCheck.Test.fail_reportf "compare disagrees";
      if Zint.compare_sign_magnitude a b <> Limbs.compare_layout la lb then
        QCheck.Test.fail_reportf "compare_sign_magnitude disagrees";
      if Zint.equal a b <> (Limbs.compare la lb = 0) then
        QCheck.Test.fail_reportf "equal disagrees";
      if Zint.sign a <> Limbs.sign la then
        QCheck.Test.fail_reportf "sign disagrees";
      if Zint.to_int_opt a <> Limbs.to_int_opt la then
        QCheck.Test.fail_reportf "to_int_opt disagrees";
      if Zint.to_float a <> Limbs.to_float la then
        QCheck.Test.fail_reportf "to_float disagrees";
      if not (Limbs.is_zero lb) then begin
        let q, r = Zint.divmod a b and lq, lr = Limbs.divmod la lb in
        agree "divmod quotient" q lq;
        agree "divmod remainder" r lr;
        agree "div" (Zint.div a b) lq;
        agree "rem" (Zint.rem a b) lr;
        agree "fdiv" (Zint.fdiv a b) (limbs_fdiv la lb);
        agree "cdiv" (Zint.cdiv a b) (limbs_cdiv la lb);
        agree "fmod" (Zint.fmod a b)
          (Limbs.sub la (Limbs.mul lb (limbs_fdiv la lb)));
        agree "divexact" (Zint.divexact (Zint.mul a b) b) la
      end;
      true)

let test_int_boundaries () =
  let two62 = "4611686018427387904" in
  check_z "neg min_int" two62 (Zint.neg (z min_int));
  check_z "abs min_int" two62 (Zint.abs (z min_int));
  check_z "min_int / -1" two62 (Zint.div (z min_int) (z (-1)));
  check_z "min_int mod -1" "0" (Zint.rem (z min_int) (z (-1)));
  check_z "fdiv min_int -1" two62 (Zint.fdiv (z min_int) (z (-1)));
  check_z "-1 * min_int" two62 (Zint.mul (z (-1)) (z min_int));
  check_z "min_int * -1" two62 (Zint.mul (z min_int) (z (-1)));
  check_z "max_int + 1" two62 (Zint.add (z max_int) Zint.one);
  check_z "min_int - 1" "-4611686018427387905" (Zint.sub (z min_int) Zint.one);
  check_z "gcd min_int 0" two62 (Zint.gcd (z min_int) Zint.zero);
  check_z "gcd min_int min_int" two62 (Zint.gcd (z min_int) (z min_int));
  check_z "gcd min_int 6" "2" (Zint.gcd (z min_int) (z 6));
  check_z "1 << 62" two62 (Zint.shift_left Zint.one 62);
  check_z "-1 << 62" (string_of_int min_int)
    (Zint.shift_left Zint.minus_one 62);
  (* a limb result that comes back into range is an int again *)
  let back = Zint.sub (Zint.add (z max_int) Zint.one) Zint.one in
  Alcotest.(check (option int)) "back into range" (Some max_int)
    (Zint.to_int_opt back);
  Alcotest.(check bool) "canonical" true (Zint.is_canonical back);
  Alcotest.(check bool) "neg (neg min_int) canonical" true
    (Zint.is_canonical (Zint.neg (Zint.neg (z min_int))))

(* --- Q tests ----------------------------------------------------------- *)

let q = Q.of_ints

let test_q_canonical () =
  Alcotest.(check string) "reduced" "2/3" (Q.to_string (q 4 6));
  Alcotest.(check string) "sign in num" "-2/3" (Q.to_string (q 2 (-3)));
  Alcotest.(check string) "zero" "0" (Q.to_string (q 0 17));
  Alcotest.(check string) "integer" "5" (Q.to_string (q 10 2))

let test_q_arith () =
  Alcotest.(check string) "1/2 + 1/3" "5/6"
    (Q.to_string (Q.add (q 1 2) (q 1 3)));
  Alcotest.(check string) "2/3 * 3/4" "1/2"
    (Q.to_string (Q.mul (q 2 3) (q 3 4)));
  Alcotest.(check string) "(1/2) / (1/4)" "2"
    (Q.to_string (Q.div (q 1 2) (q 1 4)))

let test_q_floor_ceil () =
  List.iter (fun (n, d, fl, ce) ->
    Alcotest.(check int) (Printf.sprintf "floor %d/%d" n d) fl
      (Zint.to_int_exn (Q.floor (q n d)));
    Alcotest.(check int) (Printf.sprintf "ceil %d/%d" n d) ce
      (Zint.to_int_exn (Q.ceil (q n d))))
    [ (7, 2, 3, 4); (-7, 2, -4, -3); (6, 2, 3, 3); (-6, 2, -3, -3);
      (1, 3, 0, 1); (-1, 3, -1, 0) ]

let test_q_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (q 1 3) (q 1 2) < 0);
  Alcotest.(check bool) "-1/2 < -1/3" true (Q.compare (q (-1) 2) (q (-1) 3) < 0);
  Alcotest.(check bool) "equal" true (Q.equal (q 2 4) (q 1 2))

let qgen =
  QCheck.map
    (fun (n, d) -> Q.make (z n) (z (if d = 0 then 1 else d)))
    (QCheck.pair small_int small_int)

let prop_q_add_comm =
  QCheck.Test.make ~name:"q add commutative" ~count:300
    (QCheck.pair qgen qgen)
    (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a))

let prop_q_distributive =
  QCheck.Test.make ~name:"q distributive" ~count:300
    (QCheck.triple qgen qgen qgen)
    (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_q_floor_le =
  QCheck.Test.make ~name:"floor <= q <= ceil" ~count:300 qgen
    (fun a ->
      Q.compare (Q.of_zint (Q.floor a)) a <= 0
      && Q.compare a (Q.of_zint (Q.ceil a)) <= 0)

let prop_q_inv_involutive =
  QCheck.Test.make ~name:"inv involutive" ~count:300 qgen
    (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal a (Q.inv (Q.inv a)))

(* Q's integer fast paths skip [make]; they must give exactly what the
   general path gives. *)
let q_gen =
  let open QCheck.Gen in
  let zi = map zint_of_limbs limbs_gen in
  frequency
    [ (3, map Q.of_zint zi);
      (2, map2 (fun n d -> if Zint.is_zero d then Q.of_zint n else Q.make n d)
            zi zi);
      (1, return Q.zero) ]

let q_arb = QCheck.make ~print:Q.to_string q_gen

let prop_q_fast_paths =
  QCheck.Test.make ~name:"q fast paths match make" ~count:2000
    (QCheck.pair q_arb q_arb)
    (fun (a, b) ->
      let n = Q.num and d = Q.den in
      let general_add x y =
        Q.make (Zint.add (Zint.mul (n x) (d y)) (Zint.mul (n y) (d x)))
          (Zint.mul (d x) (d y))
      in
      let check name r e =
        if not (Q.equal r e) then
          QCheck.Test.fail_reportf "%s: got %s, make says %s" name
            (Q.to_string r) (Q.to_string e);
        if not (Zint.is_canonical (n r) && Zint.is_canonical (d r)) then
          QCheck.Test.fail_reportf "%s: non-canonical %s" name (Q.to_string r)
      in
      check "add" (Q.add a b) (general_add a b);
      check "sub" (Q.sub a b) (general_add a (Q.neg b));
      check "mul" (Q.mul a b)
        (Q.make (Zint.mul (n a) (n b)) (Zint.mul (d a) (d b)));
      Q.compare a b
      = Zint.compare (Zint.mul (n a) (d b)) (Zint.mul (n b) (d a)))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_add_matches_int; prop_mul_matches_int; prop_divmod_reconstruct;
        prop_string_roundtrip; prop_gcd_divides; prop_mul_associative;
        prop_fdiv_floor; prop_q_add_comm; prop_q_distributive;
        prop_q_floor_le; prop_q_inv_involutive; prop_zint_matches_limbs;
        prop_q_fast_paths ]
  in
  Alcotest.run "arith"
    [
      ( "zint",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "add carries" `Quick test_add_carries;
          Alcotest.test_case "mul large" `Quick test_mul_large;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "fdiv cdiv" `Quick test_fdiv_cdiv;
          Alcotest.test_case "gcd lcm" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "big division" `Quick test_big_division;
          Alcotest.test_case "shift left" `Quick test_shift_left;
          Alcotest.test_case "total order" `Quick test_compare_total_order;
          Alcotest.test_case "int boundaries" `Quick test_int_boundaries;
        ] );
      ( "q",
        [
          Alcotest.test_case "canonical form" `Quick test_q_canonical;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "floor ceil" `Quick test_q_floor_ceil;
          Alcotest.test_case "compare" `Quick test_q_compare;
        ] );
      ("properties", props);
    ]
