open Emsc_arith
open Emsc_linalg

type result =
  | Exact of Zint.t
  | More_than of Zint.t
  | Unbounded

exception Hit_limit
exception Is_unbounded
exception Int_empty

(* Bound rows of [x_j] at level [j]: [(a, e)] with [e] over
   [x_0 .. x_j] plus constant and its [x_j] entry zero (see
   {!Poly.dim_bound_pairs}). *)
type level = {
  lowers : (Zint.t * Vec.t) array;
  uppers : (Zint.t * Vec.t) array;
}

(* Fourier–Motzkin levels, innermost dimension first: level [j] bounds
   [x_j] on the projection onto [x_0 .. x_j].  Projections are not
   redundancy-reduced; the walk only evaluates the rows, so extra rows
   cost arithmetic, not LPs.  Raises [Is_unbounded] at a level with no
   lower or no upper row and [Int_empty] when integer tightening
   collapses a projection to the empty constraint. *)
let levels p =
  let n = Poly.dim p in
  let lv = Array.make n { lowers = [||]; uppers = [||] } in
  let cur = ref p in
  for j = n - 1 downto 0 do
    if Poly.is_trivially_empty !cur then raise Int_empty;
    let lowers, uppers = Poly.dim_bound_pairs !cur j in
    if lowers = [] || uppers = [] then raise Is_unbounded;
    lv.(j) <- { lowers = Array.of_list lowers; uppers = Array.of_list uppers };
    if j > 0 then cur := Poly.eliminate_dim !cur j
  done;
  lv

(* Some dimension of the (rationally non-empty) polyhedron is
   unbounded.  Only asked when tightening hid the bound rows. *)
let rationally_unbounded p =
  List.exists (fun i ->
    match Poly.var_bounds p i with
    | Some _, Some _ -> false
    | _ -> true)
    (List.init (Poly.dim p) Fun.id)

let count_poly ?limit p =
  let limit_z = Option.map Zint.of_int limit in
  let total = ref Zint.zero in
  let add k =
    total := Zint.add !total k;
    match limit_z with
    | Some l when Zint.compare !total l > 0 -> raise Hit_limit
    | Some _ | None -> ()
  in
  let walk lv =
    let n = Array.length lv in
    let x = Array.make n Zint.zero in
    (* value of [e] at the prefix [x_0 .. x_{j-1}] *)
    let eval j (e : Vec.t) =
      let acc = ref e.(j + 1) in
      for i = 0 to j - 1 do
        if not (Zint.is_zero e.(i)) then
          acc := Zint.add !acc (Zint.mul e.(i) x.(i))
      done;
      !acc
    in
    let extreme pick bound rows =
      let m = ref (bound rows.(0)) in
      for k = 1 to Array.length rows - 1 do
        m := pick !m (bound rows.(k))
      done;
      !m
    in
    let rec go j =
      let { lowers; uppers } = lv.(j) in
      let lo =
        extreme Zint.max
          (fun (a, e) -> Zint.cdiv (Zint.neg (eval j e)) a)
          lowers
      in
      let hi = extreme Zint.min (fun (a, e) -> Zint.fdiv (eval j e) a) uppers in
      if j = n - 1 then begin
        if Zint.compare lo hi <= 0 then add (Zint.add (Zint.sub hi lo) Zint.one)
      end
      else begin
        let v = ref lo in
        while Zint.compare !v hi <= 0 do
          x.(j) <- !v;
          go (j + 1);
          v := Zint.add !v Zint.one
        done
      end
    in
    if n = 0 then add Zint.one else go 0
  in
  if Poly.is_empty p then Exact Zint.zero
  else
    match levels p with
    | lv -> (
      match walk lv with
      | () -> Exact !total
      | exception Hit_limit ->
        More_than (Zint.add (Option.get limit_z) Zint.one))
    | exception Is_unbounded -> Unbounded
    | exception Int_empty ->
      if rationally_unbounded p then Unbounded else Exact Zint.zero

let count_uset ?limit u =
  let disjoint = Uset.make_disjoint u in
  let rec sum acc = function
    | [] -> Exact acc
    | p :: rest -> begin
      match count_poly ?limit p with
      | Exact n -> sum (Zint.add acc n) rest
      | More_than n -> More_than (Zint.add acc n)
      | Unbounded -> Unbounded
    end
  in
  sum Zint.zero (Uset.pieces disjoint)

let box_volume_uset u =
  match Uset.bounding_box u with
  | None -> None
  | Some box ->
    Some
      (Array.fold_left (fun acc (lo, hi) ->
         Zint.mul acc (Zint.add (Zint.sub hi lo) Zint.one))
         Zint.one box)

let to_float = function
  | Exact n | More_than n -> Zint.to_float n
  | Unbounded -> infinity
