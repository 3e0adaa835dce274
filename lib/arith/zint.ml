(* A value that fits a native [int] is held as that [int] ([S]); only a
   value outside the [int] range is held in limbs ([L]).  The form is
   canonical, so structural equality is value equality.  Every small
   operation checks for overflow and redoes the operation in limbs when
   it overflows. *)

type t = S of int | L of Limbs.t

let of_big b = match Limbs.to_int_opt b with Some n -> S n | None -> L b
let to_big = function S n -> Limbs.of_int n | L b -> b

let zero = S 0
let one = S 1
let two = S 2
let minus_one = S (-1)

let of_int n = S n
let is_canonical = function S _ -> true | L b -> Limbs.to_int_opt b = None

let to_int_opt = function S n -> Some n | L _ -> None

let to_int_exn = function
  | S n -> n
  | L _ -> failwith "Zint.to_int_exn: value does not fit in int"

let to_float = function S n -> float_of_int n | L b -> Limbs.to_float b

let sign = function S n -> Int.compare n 0 | L b -> Limbs.sign b
let is_zero = function S 0 -> true | _ -> false
let is_one = function S 1 -> true | _ -> false
let is_negative x = sign x < 0
let is_positive x = sign x > 0

(* An [L] value lies outside the [int] range, so its sign alone orders
   it against any [S] value. *)
let compare x y =
  match x, y with
  | S a, S b -> Int.compare a b
  | S _, L b -> - Limbs.sign b
  | L a, S _ -> Limbs.sign a
  | L a, L b -> Limbs.compare a b

let equal x y =
  match x, y with
  | S a, S b -> a = b
  | L a, L b -> Limbs.compare a b = 0
  | S _, L _ | L _, S _ -> false

let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y
let hash = function S n -> Hashtbl.hash n | L b -> Hashtbl.hash b

let compare_sign_magnitude x y = Limbs.compare_layout (to_big x) (to_big y)

let big2 op x y = of_big (op (to_big x) (to_big y))

let neg = function
  | S n when n <> min_int -> S (-n)
  | x -> of_big (Limbs.neg (to_big x))

let abs x = if is_negative x then neg x else x

let add x y =
  match x, y with
  | S a, S b ->
    let s = a + b in
    (* overflow iff both operands have a sign the sum does not *)
    if (a lxor s) land (b lxor s) < 0 then big2 Limbs.add x y else S s
  | _ -> big2 Limbs.add x y

let sub x y =
  match x, y with
  | S a, S b ->
    let d = a - b in
    if (a lxor b) land (a lxor d) < 0 then big2 Limbs.sub x y else S d
  | _ -> big2 Limbs.sub x y

(* |a|, |b| < 2^31 keeps the product below 2^62; past that, check by
   dividing back, where [min_int / -1] wraps to [min_int] unnoticed *)
let half = 1 lsl 31

let mul x y =
  match x, y with
  | S a, S b ->
    if a > - half && a < half && b > - half && b < half then S (a * b)
    else begin
      let p = a * b in
      if a <> 0 && (p / a <> b || (a = -1 && b = min_int))
      then big2 Limbs.mul x y
      else S p
    end
  | _ -> big2 Limbs.mul x y

(* [min_int / -1] is the one small quotient that leaves the range *)
let small_div a b = b <> 0 && not (a = min_int && b = -1)

let big_divmod x y =
  if is_zero y then raise Division_by_zero;
  Limbs.divmod (to_big x) (to_big y)

let divmod x y =
  match x, y with
  | S a, S b when small_div a b -> (S (a / b), S (a mod b))
  | _ ->
    let q, r = big_divmod x y in
    (of_big q, of_big r)

let div x y =
  match x, y with
  | S a, S b when small_div a b -> S (a / b)
  | _ -> of_big (fst (big_divmod x y))

let rem x y =
  match x, y with
  | S a, S b when small_div a b -> S (a mod b)
  | _ -> of_big (snd (big_divmod x y))

let fdiv x y =
  match x, y with
  | S a, S b when small_div a b ->
    let q = a / b and r = a mod b in
    S (if r <> 0 && (r lxor b) < 0 then q - 1 else q)
  | _ ->
    let q, r = divmod x y in
    if sign r <> 0 && sign r <> sign y then sub q one else q

let cdiv x y =
  match x, y with
  | S a, S b when small_div a b ->
    let q = a / b and r = a mod b in
    S (if r <> 0 && (r lxor b) >= 0 then q + 1 else q)
  | _ ->
    let q, r = divmod x y in
    if sign r <> 0 && sign r = sign y then add q one else q

let fmod x y = sub x (mul y (fdiv x y))

let divexact x y =
  match x, y with
  | S a, S b when small_div a b -> assert (a mod b = 0); S (a / b)
  | _ ->
    let q, r = divmod x y in
    assert (is_zero r);
    q

(* Euclid on ints with truncated [mod]: the result is the gcd up to
   sign, and is [min_int] only when the gcd is 2^62 *)
let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

let rec gcd x y =
  match x, y with
  | S a, S b ->
    let g = int_gcd a b in
    if g = min_int then neg (S g) else S (Stdlib.abs g)
  | _ -> if is_zero y then abs x else gcd y (rem x y)

let lcm x y =
  if is_zero x || is_zero y then zero
  else abs (mul x (divexact y (gcd x y)))

let pow x k =
  if k < 0 then invalid_arg "Zint.pow";
  let rec go acc b k =
    if k = 0 then acc
    else if k land 1 = 1 then go (mul acc b) (mul b b) (k asr 1)
    else go acc (mul b b) (k asr 1)
  in
  go one x k

let shift_left x k =
  if k < 0 then invalid_arg "Zint.shift_left";
  match x with
  | S n when k < Sys.int_size && (n lsl k) asr k = n -> S (n lsl k)
  | _ -> of_big (Limbs.shift_left (to_big x) k)

let to_string = function
  | S n -> string_of_int n
  | L b -> Limbs.to_string b

let of_string s = of_big (Limbs.of_string s)

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
