(* Sign-magnitude bignums over 31-bit limbs (little-endian).  All limb
   products fit in 62 bits, so every intermediate stays inside OCaml's
   native 63-bit [int] with room for a carry bit.  This is the big case
   of [Zint]: it is reached only when a result leaves the [int] range. *)

let limb_bits = 31
let base = 1 lsl limb_bits (* 2^31 *)
let limb_mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign ∈ {-1,0,1}; sign = 0 iff mag = [||];
   mag has no trailing (most-significant) zero limb;
   every limb is in [0, base). *)

let zero = { sign = 0; mag = [||] }

let normalize_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make sign mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* min_int negation overflows; split the negative magnitude *)
    let m = ref (if n < 0 then n else -n) in
    let len = if !m > -base then 1 else if !m <> min_int then 2 else 3 in
    let mag = Array.make len 0 in
    for i = 0 to len - 1 do
      mag.(i) <- -(!m mod base);
      m := !m / base
    done;
    { sign; mag }
  end

let sign x = x.sign
let is_zero x = x.sign = 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign >= 0 then compare_mag x.mag y.mag
  else compare_mag y.mag x.mag

(* |a| + |b| *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r

(* |a| - |b|, requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (add_mag x.mag y.mag)
  else begin
    let c = compare_mag x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then make x.sign (sub_mag x.mag y.mag)
    else make y.sign (sub_mag y.mag x.mag)
  end

let sub x y = add x (neg y)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let t = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      (* propagate the final carry, which can itself exceed one limb *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr k
      done
    end
  done;
  r

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else make (x.sign * y.sign) (mul_mag x.mag y.mag)

(* Left-shift a magnitude by [s] bits, 0 <= s < limb_bits. *)
let shl_mag_bits a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) lsl s) lor !carry in
      r.(i) <- t land limb_mask;
      carry := t lsr limb_bits
    done;
    r.(la) <- !carry;
    r
  end

(* Right-shift a magnitude by [s] bits, 0 <= s < limb_bits. *)
let shr_mag_bits a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    for i = 0 to la - 1 do
      let hi = if i + 1 < la then a.(i + 1) else 0 in
      r.(i) <- ((a.(i) lsr s) lor (hi lsl (limb_bits - s))) land limb_mask
    done;
    r
  end

let shift_left x k =
  if k < 0 then invalid_arg "Zint.shift_left"
  else if x.sign = 0 || k = 0 then x
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let shifted = shl_mag_bits x.mag bits in
    let r = Array.make (limbs + Array.length shifted) 0 in
    Array.blit shifted 0 r limbs (Array.length shifted);
    make x.sign r
  end

(* Knuth Algorithm D.  [divmod_mag u v] returns (q, r) with
   u = q*v + r, 0 <= r < v, all as magnitudes. *)
let divmod_mag u v =
  let n = Array.length v in
  assert (n > 0);
  if compare_mag u v < 0 then ([||], Array.copy u)
  else if n = 1 then begin
    let v0 = v.(0) in
    let lu = Array.length u in
    let q = Array.make lu 0 in
    let r = ref 0 in
    for i = lu - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor u.(i) in
      q.(i) <- cur / v0;
      r := cur mod v0
    done;
    (q, if !r = 0 then [||] else [| !r |])
  end
  else begin
    (* Normalize so the top divisor limb has its high bit set. *)
    let s =
      let rec go s top = if top land (base lsr 1) <> 0 then s
        else go (s + 1) (top lsl 1)
      in
      go 0 v.(n - 1)
    in
    let vn = normalize_mag (shl_mag_bits v s) in
    assert (Array.length vn = n);
    let un =
      let t = shl_mag_bits u s in
      (* ensure one extra high limb *)
      if Array.length t = Array.length u then Array.append t [| 0 |] else t
    in
    let m = Array.length un - n - 1 in
    let q = Array.make (m + 1) 0 in
    let v1 = vn.(n - 1) and v2 = vn.(n - 2) in
    for j = m downto 0 do
      let top = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
      let qhat = ref (top / v1) and rhat = ref (top mod v1) in
      let adjust = ref true in
      while !adjust do
        if !qhat >= base
           || !qhat * v2 > (!rhat lsl limb_bits) lor un.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + v1;
          if !rhat >= base then adjust := false
        end
        else adjust := false
      done;
      (* multiply-subtract qhat * vn from un[j .. j+n] *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * vn.(i) + !carry in
        carry := p lsr limb_bits;
        let d = un.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin un.(i + j) <- d + base; borrow := 1 end
        else begin un.(i + j) <- d; borrow := 0 end
      done;
      let d = un.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* rare over-estimate: add vn back and decrement qhat *)
        un.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let t = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- t land limb_mask;
          c := t lsr limb_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land limb_mask
      end
      else un.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = shr_mag_bits (Array.sub un 0 n) s in
    (q, r)
  end

let divmod x y =
  if y.sign = 0 then raise Division_by_zero
  else if x.sign = 0 then (zero, zero)
  else begin
    let q, r = divmod_mag x.mag y.mag in
    (make (x.sign * y.sign) q, make x.sign r)
  end

let to_int_opt x =
  (* Two limbs cover 62 bits, which always fits; three limbs only fit
     for min_int = -2^62 itself. *)
  match Array.length x.mag with
  | 0 -> Some 0
  | 1 -> Some (x.sign * x.mag.(0))
  | 2 -> Some (x.sign * ((x.mag.(1) lsl limb_bits) lor x.mag.(0)))
  | 3 when x.sign = -1 && x.mag.(0) = 0 && x.mag.(1) = 0 && x.mag.(2) = 1 ->
    Some min_int
  | _ -> None

let to_float x =
  let f = ref 0.0 in
  for i = Array.length x.mag - 1 downto 0 do
    f := (!f *. float_of_int base) +. float_of_int x.mag.(i)
  done;
  float_of_int x.sign *. !f

let ten = of_int 10
let billion = of_int 1_000_000_000

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    (* peel 9 decimal digits at a time *)
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod v billion in
        go q (Option.get (to_int_opt r) :: acc)
      end
    in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match go (abs x) [] with
     | [] -> assert false
     | d :: rest ->
       Buffer.add_string buf (string_of_int d);
       List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d))
         rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Zint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Zint.of_string: no digits";
  let v = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Zint.of_string: bad digit";
    v := add (mul !v ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !v else !v

(* Layout order: sign, then limb count, then limbs from the least
   significant up — what polymorphic [compare] gives on [t]. *)
let compare_layout x y =
  if x.sign <> y.sign then Int.compare x.sign y.sign
  else begin
    let la = Array.length x.mag and lb = Array.length y.mag in
    if la <> lb then Int.compare la lb
    else begin
      let rec go i =
        if i = la then 0
        else if x.mag.(i) <> y.mag.(i) then Int.compare x.mag.(i) y.mag.(i)
        else go (i + 1)
      in
      go 0
    end
  end
