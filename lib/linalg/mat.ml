open Emsc_arith

type t = Vec.t array

let make r c = Array.init r (fun _ -> Vec.make c)
let of_ints rows = Array.of_list (List.map Vec.of_ints rows)

let identity n = Array.init n (fun i -> Vec.unit n i)

let rows m = Array.length m
let cols m = if Array.length m = 0 then 0 else Array.length m.(0)
let copy m = Array.map Vec.copy m
let row m i = m.(i)
let col m j = Array.map (fun r -> r.(j)) m

let transpose m =
  let r = rows m and c = cols m in
  Array.init c (fun j -> Array.init r (fun i -> m.(i).(j)))

let mul a b =
  if cols a <> rows b then invalid_arg "Mat.mul: dimension mismatch";
  let bt = transpose b in
  Array.map (fun ra -> Array.map (fun cb -> Vec.dot ra cb) bt) a

let mul_vec m v = Array.map (fun r -> Vec.dot r v) m

let add a b =
  if rows a <> rows b || cols a <> cols b then invalid_arg "Mat.add";
  Array.map2 Vec.add a b

let equal a b =
  rows a = rows b && cols a = cols b && Array.for_all2 Vec.equal a b

let append_rows = Array.append

(* Rational row echelon form; returns (echelon, pivot column list in
   order).  Works on a fresh Q copy. *)
let row_echelon_q m =
  let r = rows m and c = cols m in
  let a = Array.init r (fun i -> Array.init c (fun j -> Q.of_zint m.(i).(j))) in
  let pivots = ref [] in
  let cur_row = ref 0 in
  for j = 0 to c - 1 do
    if !cur_row < r then begin
      (* find a pivot in column j at or below cur_row *)
      let p = ref (-1) in
      for i = !cur_row to r - 1 do
        if !p < 0 && not (Q.is_zero a.(i).(j)) then p := i
      done;
      if !p >= 0 then begin
        let tmp = a.(!cur_row) in
        a.(!cur_row) <- a.(!p);
        a.(!p) <- tmp;
        let inv_pivot = Q.inv a.(!cur_row).(j) in
        for k = 0 to c - 1 do
          a.(!cur_row).(k) <- Q.mul a.(!cur_row).(k) inv_pivot
        done;
        for i = 0 to r - 1 do
          if i <> !cur_row && not (Q.is_zero a.(i).(j)) then begin
            let f = a.(i).(j) in
            for k = 0 to c - 1 do
              a.(i).(k) <- Q.sub a.(i).(k) (Q.mul f a.(!cur_row).(k))
            done
          end
        done;
        pivots := j :: !pivots;
        incr cur_row
      end
    end
  done;
  (a, List.rev !pivots)

let rank m = List.length (snd (row_echelon_q m))

(* Bareiss fraction-free elimination: exact integer determinant. *)
let det m =
  let n = rows m in
  if n <> cols m then invalid_arg "Mat.det: not square";
  if n = 0 then Zint.one
  else begin
    let a = Array.map Vec.copy m in
    let sign = ref 1 in
    let prev = ref Zint.one in
    let result = ref Zint.zero in
    (try
       for k = 0 to n - 2 do
         if Zint.is_zero a.(k).(k) then begin
           (* find a pivot row below *)
           let p = ref (-1) in
           for i = k + 1 to n - 1 do
             if !p < 0 && not (Zint.is_zero a.(i).(k)) then p := i
           done;
           if !p < 0 then begin
             result := Zint.zero;
             raise Exit
           end;
           let t = a.(k) in
           a.(k) <- a.(!p);
           a.(!p) <- t;
           sign := - !sign
         end;
         for i = k + 1 to n - 1 do
           for j = k + 1 to n - 1 do
             a.(i).(j) <-
               Zint.divexact
                 (Zint.sub
                    (Zint.mul a.(i).(j) a.(k).(k))
                    (Zint.mul a.(i).(k) a.(k).(j)))
                 !prev
           done;
           a.(i).(k) <- Zint.zero
         done;
         prev := a.(k).(k)
       done;
       result := a.(n - 1).(n - 1)
     with Exit -> ());
    if !sign < 0 then Zint.neg !result else !result
  end

(* Clear denominators of a rational vector into a normalized integer
   vector. *)
let integerize qv =
  let l =
    Array.fold_left (fun acc q -> Zint.lcm acc (Q.den q)) Zint.one qv
  in
  Vec.normalize
    (Array.map (fun q -> Zint.mul (Q.num q) (Zint.divexact l (Q.den q))) qv)

let nullspace m =
  let c = cols m in
  if c = 0 then []
  else begin
    let ech, pivots = row_echelon_q m in
    let is_pivot = Array.make c false in
    List.iter (fun j -> is_pivot.(j) <- true) pivots;
    let pivot_rows = List.mapi (fun i j -> (j, i)) pivots in
    let basis = ref [] in
    for j = c - 1 downto 0 do
      if not is_pivot.(j) then begin
        (* free variable j = 1, other free vars = 0 *)
        let v = Array.make c Q.zero in
        v.(j) <- Q.one;
        List.iter (fun (pj, pi) -> v.(pj) <- Q.neg ech.(pi).(j)) pivot_rows;
        basis := integerize v :: !basis
      end
    done;
    !basis
  end

let solve m b =
  let r = rows m and c = cols m in
  if r <> Array.length b then invalid_arg "Mat.solve";
  (* eliminate on the augmented matrix *)
  let aug =
    Array.init r (fun i ->
      Array.init (c + 1) (fun j -> if j < c then m.(i).(j) else b.(i)))
  in
  let ech, pivots = row_echelon_q aug in
  if List.mem c pivots then None (* pivot in the constant column *)
  else begin
    let x = Array.make c Q.zero in
    List.iteri (fun i j -> x.(j) <- ech.(i).(c)) pivots;
    Some x
  end

(* Row-style HNF via integer row operations (Euclidean column sweeps).
   Returns (h, u) with h = u * m and u unimodular. *)
let hermite_normal_form m =
  let r = rows m and c = cols m in
  let h = copy m in
  let u = identity r in
  let swap i k =
    let t = h.(i) in h.(i) <- h.(k); h.(k) <- t;
    let t = u.(i) in u.(i) <- u.(k); u.(k) <- t
  in
  let addmul i k q =
    (* row i <- row i - q * row k *)
    h.(i) <- Vec.combine Zint.one h.(i) (Zint.neg q) h.(k);
    u.(i) <- Vec.combine Zint.one u.(i) (Zint.neg q) u.(k)
  in
  let negate i =
    h.(i) <- Vec.neg h.(i);
    u.(i) <- Vec.neg u.(i)
  in
  let cur = ref 0 in
  for j = 0 to c - 1 do
    if !cur < r then begin
      (* reduce entries below cur in column j to zero via gcd steps *)
      let progressing = ref true in
      while !progressing do
        (* find row with minimal nonzero |h.(i).(j)| for i >= cur *)
        let best = ref (-1) in
        for i = !cur to r - 1 do
          if not (Zint.is_zero h.(i).(j))
             && (!best < 0
                 || Zint.compare (Zint.abs h.(i).(j)) (Zint.abs h.(!best).(j))
                    < 0)
          then best := i
        done;
        if !best < 0 then progressing := false
        else begin
          if !best <> !cur then swap !cur !best;
          if Zint.is_negative h.(!cur).(j) then negate !cur;
          let all_zero = ref true in
          for i = !cur + 1 to r - 1 do
            if not (Zint.is_zero h.(i).(j)) then begin
              let q = Zint.fdiv h.(i).(j) h.(!cur).(j) in
              addmul i !cur q;
              if not (Zint.is_zero h.(i).(j)) then all_zero := false
            end
          done;
          if !all_zero then begin
            (* reduce entries above the pivot *)
            for i = 0 to !cur - 1 do
              if not (Zint.is_zero h.(i).(j)) then begin
                let q = Zint.fdiv h.(i).(j) h.(!cur).(j) in
                addmul i !cur q
              end
            done;
            incr cur;
            progressing := false
          end
        end
      done
    end
  done;
  (h, u)

let pp fmt m =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list Vec.pp)
    (Array.to_list m)
