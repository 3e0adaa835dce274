open Emsc_arith
open Emsc_linalg

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * Q.t array

(* Internal standard-form problem:
     minimize  cost . y
     s.t.      tab * y = rhs,   y >= 0
   where the tableau rows are kept with rhs >= 0 throughout.  Free
   variables of the user problem are split as x = u - v. *)

type tableau = {
  mutable rows : Q.t array array; (* m x ncols *)
  mutable rhs : Q.t array;        (* m *)
  mutable basis : int array;      (* m, column index basic in each row *)
  mutable red : Q.t array;        (* reduced costs of the current phase *)
  ncols : int;
}

let pivot t ~row ~col =
  Emsc_obs.Prof.add "simplex.pivots" 1.0;
  let m = Array.length t.rows in
  let piv = t.rows.(row).(col) in
  let inv = Q.inv piv in
  let r = t.rows.(row) in
  for j = 0 to t.ncols - 1 do
    r.(j) <- Q.mul r.(j) inv
  done;
  t.rhs.(row) <- Q.mul t.rhs.(row) inv;
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = t.rows.(i).(col) in
      if not (Q.is_zero f) then begin
        let ri = t.rows.(i) in
        for j = 0 to t.ncols - 1 do
          ri.(j) <- Q.sub ri.(j) (Q.mul f r.(j))
        done;
        t.rhs.(i) <- Q.sub t.rhs.(i) (Q.mul f t.rhs.(row))
      end
    end
  done;
  (* the reduced-cost row is eliminated like any other row *)
  let f = t.red.(col) in
  if not (Q.is_zero f) then
    for j = 0 to t.ncols - 1 do
      t.red.(j) <- Q.sub t.red.(j) (Q.mul f r.(j))
    done;
  t.basis.(row) <- col

(* Reduced costs for objective [cost] (length ncols) given the current
   basis: z_j = cost_j - cost_B . B^-1 A_j.  Computed once per phase;
   [pivot] keeps them current after that. *)
let reduced_costs t cost =
  let m = Array.length t.rows in
  let red = Array.copy cost in
  for i = 0 to m - 1 do
    let cb = cost.(t.basis.(i)) in
    if not (Q.is_zero cb) then begin
      let ri = t.rows.(i) in
      for j = 0 to t.ncols - 1 do
        red.(j) <- Q.sub red.(j) (Q.mul cb ri.(j))
      done
    end
  done;
  red

let objective_value t cost =
  let m = Array.length t.rows in
  let v = ref Q.zero in
  for i = 0 to m - 1 do
    v := Q.add !v (Q.mul cost.(t.basis.(i)) t.rhs.(i))
  done;
  !v

(* Bland's rule: entering = smallest-index column with negative reduced
   cost (restricted to [allowed]); leaving = smallest-index basic var
   among the min-ratio rows.  Returns `Optimal or `Unbounded. *)
let solve_phase t cost ~allowed =
  let m = Array.length t.rows in
  t.red <- reduced_costs t cost;
  let rec iterate () =
    let entering = ref (-1) in
    for j = t.ncols - 1 downto 0 do
      if allowed j && Q.sign t.red.(j) < 0 then entering := j
    done;
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      let best = ref (-1) in
      let best_ratio = ref Q.zero in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if Q.sign a > 0 then begin
          let ratio = Q.div t.rhs.(i) a in
          if !best < 0
             || Q.compare ratio !best_ratio < 0
             || (Q.equal ratio !best_ratio
                 && t.basis.(i) < t.basis.(!best))
          then begin best := i; best_ratio := ratio end
        end
      done;
      if !best < 0 then `Unbounded
      else begin
        pivot t ~row:!best ~col;
        iterate ()
      end
    end
  in
  iterate ()

let minimize_impl ~dim ~eqs ~ineqs ~obj =
  let n_eq = List.length eqs and n_in = List.length ineqs in
  let m = n_eq + n_in in
  (* columns: [0, 2*dim): u/v pairs; [2*dim, 2*dim+n_in): slacks;
     [2*dim+n_in, 2*dim+n_in+m): artificials *)
  let n_struct = 2 * dim in
  let slack0 = n_struct in
  let art0 = n_struct + n_in in
  let ncols = art0 + m in
  let rows = Array.init m (fun _ -> Array.make ncols Q.zero) in
  let rhs = Array.make m Q.zero in
  let basis = Array.make m 0 in
  let fill i (a : Vec.t) ~slack =
    (* a . x + a.(dim) {>=,=} 0  =>  sum a_j (u_j - v_j) [- s] = -a.(dim) *)
    let r = rows.(i) in
    for j = 0 to dim - 1 do
      let c = Q.of_zint a.(j) in
      r.(2 * j) <- c;
      r.(2 * j + 1) <- Q.neg c
    done;
    (match slack with
     | Some k -> r.(slack0 + k) <- Q.minus_one
     | None -> ());
    rhs.(i) <- Q.neg (Q.of_zint a.(dim));
    (* normalize to rhs >= 0 *)
    if Q.sign rhs.(i) < 0 then begin
      for j = 0 to ncols - 1 do
        r.(j) <- Q.neg r.(j)
      done;
      rhs.(i) <- Q.neg rhs.(i)
    end;
    r.(art0 + i) <- Q.one;
    basis.(i) <- art0 + i
  in
  List.iteri (fun i a -> fill i a ~slack:None) eqs;
  List.iteri (fun k a -> fill (n_eq + k) a ~slack:(Some k)) ineqs;
  let t = { rows; rhs; basis; red = Array.make ncols Q.zero; ncols } in
  (* Phase 1: minimize sum of artificials. *)
  let cost1 = Array.make ncols Q.zero in
  for j = art0 to ncols - 1 do
    cost1.(j) <- Q.one
  done;
  (match solve_phase t cost1 ~allowed:(fun _ -> true) with
   | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
   | `Optimal -> ());
  if Q.sign (objective_value t cost1) > 0 then Infeasible
  else begin
    (* Drive any artificial still basic (at value 0) out of the basis. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= art0 then begin
        let piv = ref (-1) in
        for j = art0 - 1 downto 0 do
          if not (Q.is_zero t.rows.(i).(j)) then piv := j
        done;
        if !piv >= 0 then pivot t ~row:i ~col:!piv
        (* else: redundant row; harmless to keep with the artificial
           pinned at zero since artificials are banned in phase 2 *)
      end
    done;
    (* Phase 2 *)
    let cost2 = Array.make ncols Q.zero in
    for j = 0 to dim - 1 do
      cost2.(2 * j) <- obj.(j);
      cost2.(2 * j + 1) <- Q.neg obj.(j)
    done;
    let allowed j = j < art0 in
    match solve_phase t cost2 ~allowed with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let value = Q.add (objective_value t cost2) obj.(dim) in
      let y = Array.make ncols Q.zero in
      for i = 0 to m - 1 do
        y.(t.basis.(i)) <- t.rhs.(i)
      done;
      let point =
        Array.init dim (fun j -> Q.sub y.(2 * j) y.(2 * j + 1))
      in
      Optimal (value, point)
  end

(* the flag test keeps the disabled path free of the probe closure *)
let minimize ~dim ~eqs ~ineqs ~obj =
  if not (Emsc_obs.Prof.enabled ()) then minimize_impl ~dim ~eqs ~ineqs ~obj
  else
    Emsc_obs.Prof.probe "simplex.minimize" (fun () ->
      minimize_impl ~dim ~eqs ~ineqs ~obj)

let maximize ~dim ~eqs ~ineqs ~obj =
  let neg = Array.map Q.neg obj in
  match minimize ~dim ~eqs ~ineqs ~obj:neg with
  | Optimal (v, p) -> Optimal (Q.neg v, p)
  | (Infeasible | Unbounded) as r -> r

let feasible_point ~dim ~eqs ~ineqs =
  let obj = Array.make (dim + 1) Q.zero in
  match minimize ~dim ~eqs ~ineqs ~obj with
  | Optimal (_, p) -> Some p
  | Infeasible | Unbounded -> None

let obj_of_vec (v : Vec.t) = Array.map Q.of_zint v
