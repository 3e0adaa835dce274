type t = { num : Zint.t; den : Zint.t }

let make num den =
  if Zint.is_zero den then raise Division_by_zero;
  let num, den = if Zint.is_negative den then Zint.neg num, Zint.neg den
    else num, den
  in
  if Zint.is_zero num then { num = Zint.zero; den = Zint.one }
  else begin
    let g = Zint.gcd num den in
    if Zint.is_one g then { num; den }
    else { num = Zint.divexact num g; den = Zint.divexact den g }
  end

let of_zint n = { num = n; den = Zint.one }
let of_int n = of_zint (Zint.of_int n)
let of_ints n d = make (Zint.of_int n) (Zint.of_int d)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num q = q.num
let den q = q.den

let neg q = { q with num = Zint.neg q.num }
let abs q = { q with num = Zint.abs q.num }

let inv q =
  if Zint.is_zero q.num then raise Division_by_zero;
  if Zint.is_negative q.num then
    { num = Zint.neg q.den; den = Zint.neg q.num }
  else { num = q.den; den = q.num }

(* Sums, differences and products of integers are integers in
   canonical form already, so [make]'s gcd is skipped for them. *)
let add a b =
  if Zint.is_zero a.num then b
  else if Zint.is_zero b.num then a
  else if Zint.is_one a.den && Zint.is_one b.den then
    of_zint (Zint.add a.num b.num)
  else
    make (Zint.add (Zint.mul a.num b.den) (Zint.mul b.num a.den))
      (Zint.mul a.den b.den)

let sub a b =
  if Zint.is_zero b.num then a
  else if Zint.is_one a.den && Zint.is_one b.den then
    of_zint (Zint.sub a.num b.num)
  else add a (neg b)

let mul a b =
  if Zint.is_zero a.num then a
  else if Zint.is_zero b.num then b
  else if Zint.is_one a.den && Zint.is_one b.den then
    of_zint (Zint.mul a.num b.num)
  else make (Zint.mul a.num b.num) (Zint.mul a.den b.den)
let div a b = mul a (inv b)

let sign q = Zint.sign q.num
let is_zero q = Zint.is_zero q.num
let is_integer q = Zint.is_one q.den

let compare a b =
  if Zint.is_one a.den && Zint.is_one b.den then Zint.compare a.num b.num
  else Zint.compare (Zint.mul a.num b.den) (Zint.mul b.num a.den)

let equal a b = Zint.equal a.num b.num && Zint.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor q = Zint.fdiv q.num q.den
let ceil q = Zint.cdiv q.num q.den

let to_float q = Zint.to_float q.num /. Zint.to_float q.den

let to_string q =
  if is_integer q then Zint.to_string q.num
  else Zint.to_string q.num ^ "/" ^ Zint.to_string q.den

let pp fmt q = Format.pp_print_string fmt (to_string q)

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
