(* Codegen tests: AST expression algebra and polyhedron scanning. *)

open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_codegen

let v = Ast.var
let i_ = Ast.int_

let test_simplify_linear () =
  (* iT + 7 - iT + 1 must fold to 8 *)
  let e =
    Ast.Add (Ast.Sub (Ast.Add (v "iT", i_ 7), v "iT"), i_ 1)
  in
  (match Ast.simplify e with
   | Ast.Const c -> Alcotest.(check int) "folded" 8 (Zint.to_int_exn c)
   | _ -> Alcotest.fail "expected a constant");
  (* 2*(x + 3) - x  ->  x + 6 *)
  let e2 = Ast.Sub (Ast.Mul (Zint.of_int 2, Ast.Add (v "x", i_ 3)), v "x") in
  let env n = if n = "x" then Zint.of_int 5 else failwith n in
  Alcotest.(check int) "value preserved" 11
    (Zint.to_int_exn (Ast.eval env (Ast.simplify e2)))

let test_simplify_minmax () =
  let e = Ast.Min [ i_ 5; Ast.Min [ i_ 3; v "x" ]; i_ 4 ] in
  let env n = if n = "x" then Zint.of_int 10 else failwith n in
  Alcotest.(check int) "min flattened" 3
    (Zint.to_int_exn (Ast.eval env (Ast.simplify e)))

(* Min/max operands are sorted only to get a canonical form, but the
   order shows in the generated code.  It is the order polymorphic
   compare gave the former sign-magnitude Zint: negative constants by
   magnitude first, then zero and positive ones. *)
let test_minmax_operand_order () =
  let shifted cs = List.map (fun c -> Ast.Add (v "i", i_ c)) cs in
  let show e = Format.asprintf "%a" Ast.pp_aexpr (Ast.simplify e) in
  Alcotest.(check string) "min order"
    "min(i + -3, i + -5, i + -1099511627776, i + 1, i + 2, \
     i + 1099511627776)"
    (show (Ast.Min (shifted [ 2; -5; 1; -3; 1 lsl 40; -(1 lsl 40) ])));
  Alcotest.(check string) "max order" "max(-2*j, -7*j, 3*j, 5*j)"
    (show (Ast.Max (List.map (fun c -> Ast.Mul (Zint.of_int c, v "j"))
                      [ -2; 3; -7; 5 ])))

let aexpr_gen =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof [ map (fun n -> Ast.Const (Zint.of_int n)) (int_range (-20) 20);
              return (v "x"); return (v "y") ]
    else begin
      let sub = gen (depth - 1) in
      oneof
        [ map2 (fun a b -> Ast.Add (a, b)) sub sub;
          map2 (fun a b -> Ast.Sub (a, b)) sub sub;
          map2 (fun k a -> Ast.Mul (Zint.of_int k, a)) (int_range (-4) 4) sub;
          map2 (fun a b -> Ast.Min [ a; b ]) sub sub;
          map2 (fun a b -> Ast.Max [ a; b ]) sub sub;
          map (fun a -> Ast.Fdiv (a, Zint.of_int 3)) sub;
          map (fun a -> Ast.Cdiv (a, Zint.of_int 2)) sub ]
    end
  in
  gen 4

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:300
    (QCheck.make aexpr_gen)
    (fun e ->
      let env n =
        match n with
        | "x" -> Zint.of_int 7
        | "y" -> Zint.of_int (-3)
        | _ -> failwith n
      in
      Zint.equal (Ast.eval env e) (Ast.eval env (Ast.simplify e)))

let test_vec_to_aexpr () =
  let row = Vec.of_ints [ 2; 0; -3; 5 ] in
  let names = [| "a"; "b"; "c" |] in
  let e = Ast.vec_to_aexpr ~names:(fun i -> names.(i)) row in
  let env n =
    match n with
    | "a" -> Zint.of_int 10
    | "c" -> Zint.of_int 1
    | _ -> Zint.zero
  in
  Alcotest.(check int) "2a - 3c + 5" 22 (Zint.to_int_exn (Ast.eval env e))

let test_free_vars () =
  let stms =
    [ Ast.loop_ "i" ~lb:(v "lo") ~ub:(Ast.Min [ v "hi"; i_ 10 ])
        [ Ast.Copy
            { dst = { Ast.array = "l"; indices = [| Ast.Sub (v "i", v "off") |] };
              src = { Ast.array = "g"; indices = [| v "i" |] } } ] ]
  in
  Alcotest.(check (list string)) "free variables" [ "hi"; "lo"; "off" ]
    (Ast.free_vars stms)

(* --- scanning ---------------------------------------------------------------- *)

let scan_points ?context ~outer ~names p =
  let body =
    [ Ast.Copy
        { dst = { Ast.array = "sink"; indices = [||] };
          src = { Ast.array = "sink"; indices = [||] } } ]
  in
  let ast = Scan.scan_poly ?context ~names ~outer ~body p in
  (* walk the AST collecting loop-variable environments at Copy *)
  let pts = ref [] in
  let rec run env stms =
    List.iter (fun s ->
      match s with
      | Ast.Loop l ->
        let lb = Ast.eval env l.Ast.lb and ub = Ast.eval env l.Ast.ub in
        let x = ref lb in
        while Zint.compare !x ub <= 0 do
          let xv = !x in
          run (fun n -> if n = l.Ast.var then xv else env n) l.Ast.body;
          x := Zint.add !x l.Ast.step
        done
      | Ast.Guard (conds, body) ->
        if
          List.for_all (fun c -> not (Zint.is_negative (Ast.eval env c))) conds
        then run env body
      | Ast.Copy _ ->
        pts :=
          List.init (Array.length names - outer) (fun k ->
            Zint.to_int_exn (env names.(outer + k)))
          :: !pts
      | Ast.Stmt_call _ | Ast.Sync | Ast.Fence | Ast.Comment _ -> ())
      stms
  in
  run (fun n -> failwith ("unbound " ^ n)) ast;
  List.sort compare !pts

let enum_points p =
  let pts = ref [] in
  let rec go p prefix =
    if Poly.is_empty p then ()
    else if Poly.dim p = 0 then pts := List.rev prefix :: !pts
    else
      match Poly.var_bounds_int p 0 with
      | Some lo, Some hi ->
        let x = ref lo in
        while Zint.compare !x hi <= 0 do
          go (Poly.fix_dim p 0 !x) (Zint.to_int_exn !x :: prefix);
          x := Zint.add !x Zint.one
        done
      | _ -> failwith "unbounded"
  in
  go p [];
  List.sort compare !pts

let test_scan_triangle () =
  let tri =
    Poly.of_ineqs ~dim:2 [ [ 1; 0; 0 ]; [ -1; 1; 0 ]; [ 0; -1; 6 ] ]
  in
  (* 0 <= i <= j <= 6 *)
  Alcotest.(check (list (list int))) "same points"
    (enum_points tri)
    (scan_points ~outer:0 ~names:[| "i"; "j" |] tri)

let prop_scan_matches_enumeration =
  QCheck.Test.make ~name:"scan enumerates exactly the integer points"
    ~count:60
    QCheck.(quad (int_range (-5) 5) (int_range 0 6) (int_range (-5) 5)
              (int_range (-8) 8))
    (fun (a, w, b, cut) ->
      let p =
        Poly.of_ineqs ~dim:2
          [ [ 1; 0; -a ]; [ -1; 0; a + w ]; [ 0; 1; -b ]; [ 0; -1; b + 6 ];
            [ 1; 1; cut + 8 ] ]
      in
      if Poly.is_empty p then true
      else
        enum_points p = scan_points ~outer:0 ~names:[| "i"; "j" |] p)

let test_scan_uset_single_visit () =
  (* two overlapping boxes: each point visited exactly once *)
  let b1 = Poly.of_ineqs ~dim:1 [ [ 1; 0 ]; [ -1; 8 ] ] in
  let b2 = Poly.of_ineqs ~dim:1 [ [ 1; -5 ]; [ -1; 12 ] ] in
  let u = Uset.union (Uset.of_poly b1) (Uset.of_poly b2) in
  let body =
    [ Ast.Copy
        { dst = { Ast.array = "s"; indices = [||] };
          src = { Ast.array = "s"; indices = [||] } } ]
  in
  let ast = Scan.scan_uset ~names:[| "i" |] ~outer:0 ~body u in
  let visits = ref [] in
  let rec run env stms =
    List.iter (fun s ->
      match s with
      | Ast.Loop l ->
        let lb = Ast.eval env l.Ast.lb and ub = Ast.eval env l.Ast.ub in
        let x = ref lb in
        while Zint.compare !x ub <= 0 do
          let xv = !x in
          run (fun n -> if n = l.Ast.var then xv else env n) l.Ast.body;
          x := Zint.add !x Zint.one
        done
      | Ast.Guard (c, body) ->
        if List.for_all (fun e -> not (Zint.is_negative (Ast.eval env e))) c
        then run env body
      | Ast.Copy _ -> visits := Zint.to_int_exn (env "i") :: !visits
      | _ -> ())
      stms
  in
  run (fun n -> failwith n) ast;
  let sorted = List.sort compare !visits in
  Alcotest.(check (list int)) "each of 0..12 exactly once"
    (List.init 13 (fun i -> i))
    sorted

let test_scan_lattice_empty_piece () =
  (* rationally non-empty but integer-empty: x0 is pinned between 10/3
     and 10/3 on the line x0 + x1 = 7.  Integer-tightened elimination
     exposes the contradiction; the scan must emit nothing instead of
     reporting the dimension unbounded. *)
  let p =
    Poly.make ~dim:2
      ~eqs:[ Vec.of_ints [ 1; 1; -7 ] ]
      ~ineqs:
        [ Vec.of_ints [ -2; 1; 3 ]; Vec.of_ints [ 0; -1; 7 ];
          Vec.of_ints [ 0; 1; -2 ]; Vec.of_ints [ 1; 0; -1 ];
          Vec.of_ints [ 2; -1; -3 ] ]
  in
  Alcotest.(check bool) "rationally non-empty" false (Poly.is_empty p);
  let ast =
    Scan.scan_poly ~names:[| "c0"; "c1" |] ~outer:0 ~body:[ Ast.Sync ] p
  in
  Alcotest.(check int) "no code generated" 0 (List.length ast)

let test_scan_context_prunes_guards () =
  (* scanning {(p, i) : p <= i <= p + 3} with context 0 <= p <= 10:
     no residual guard on p should remain *)
  let p =
    Poly.of_ineqs ~dim:2
      [ [ -1; 1; 0 ]; [ 1; -1; 3 ]; [ 1; 0; 0 ]; [ -1; 0; 10 ] ]
  in
  let ctx = Poly.of_ineqs ~dim:1 [ [ 1; 0 ]; [ -1; 10 ] ] in
  let ast =
    Scan.scan_poly ~context:ctx ~names:[| "p"; "i" |] ~outer:1
      ~body:[ Ast.Sync ] p
  in
  let has_guard =
    List.exists (function Ast.Guard _ -> true | _ -> false) ast
  in
  Alcotest.(check bool) "no guard with context" false has_guard

let () =
  Alcotest.run "codegen"
    [
      ( "ast",
        [
          Alcotest.test_case "linear folding" `Quick test_simplify_linear;
          Alcotest.test_case "min/max flattening" `Quick test_simplify_minmax;
          Alcotest.test_case "min/max operand order" `Quick
            test_minmax_operand_order;
          Alcotest.test_case "vec to expr" `Quick test_vec_to_aexpr;
          Alcotest.test_case "free variables" `Quick test_free_vars;
          QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
        ] );
      ( "scan",
        [
          Alcotest.test_case "triangle" `Quick test_scan_triangle;
          Alcotest.test_case "union single visit" `Quick
            test_scan_uset_single_visit;
          Alcotest.test_case "context prunes guards" `Quick
            test_scan_context_prunes_guards;
          Alcotest.test_case "lattice-empty piece" `Quick
            test_scan_lattice_empty_piece;
          QCheck_alcotest.to_alcotest prop_scan_matches_enumeration;
        ] );
    ]
