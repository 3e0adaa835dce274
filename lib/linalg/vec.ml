open Emsc_arith

type t = Zint.t array

let make n = Array.make n Zint.zero
let of_ints l = Array.of_list (List.map Zint.of_int l)
let of_array a = Array.map Zint.of_int a
let to_ints_exn v = Array.to_list (Array.map Zint.to_int_exn v)
let copy = Array.copy
let length = Array.length

let unit n i =
  let v = make n in
  v.(i) <- Zint.one;
  v

let map2 f a b =
  if Array.length a <> Array.length b then invalid_arg "Vec: length mismatch";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add = map2 Zint.add
let sub = map2 Zint.sub
let neg v = Array.map Zint.neg v
let scale c v = Array.map (Zint.mul c) v

let combine a x b y =
  map2 (fun xi yi -> Zint.add (Zint.mul a xi) (Zint.mul b yi)) x y

let dot a b =
  let acc = ref Zint.zero in
  if Array.length a <> Array.length b then invalid_arg "Vec.dot";
  for i = 0 to Array.length a - 1 do
    acc := Zint.add !acc (Zint.mul a.(i) b.(i))
  done;
  !acc

let is_zero v = Array.for_all Zint.is_zero v

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Zint.equal a b

let compare a b =
  let c = compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else begin
    let rec go i =
      if i >= Array.length a then 0
      else begin
        let c = Zint.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

let content v = Array.fold_left Zint.gcd Zint.zero v

let normalize v =
  let g = content v in
  if Zint.is_zero g || Zint.is_one g then v
  else Array.map (fun x -> Zint.divexact x g) v

let append = Array.append

let insert v pos x =
  let n = Array.length v in
  Array.init (n + 1) (fun i ->
    if i < pos then v.(i) else if i = pos then x else v.(i - 1))

let remove v pos =
  let n = Array.length v in
  Array.init (n - 1) (fun i -> if i < pos then v.(i) else v.(i + 1))

let pp fmt v =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") Zint.pp)
    (Array.to_list v)
