open Emsc_arith
open Emsc_linalg
open Emsc_poly

type level = {
  lowers : (Zint.t * Vec.t) list;
  uppers : (Zint.t * Vec.t) list;
}

let loop_bounds p =
  let dim = Poly.dim p in
  let levels = Array.make dim { lowers = []; uppers = [] } in
  let cur = ref (Poly.remove_redundant p) in
  for j = dim - 1 downto 0 do
    (* [!cur] has dimension [j + 1], so each bound row already has width
       [j + 2] with its [x_j] entry zero *)
    let lowers, uppers = Poly.dim_bound_pairs !cur j in
    levels.(j) <- { lowers; uppers };
    if j > 0 then cur := Poly.remove_redundant (Poly.eliminate_dim !cur j)
  done;
  levels
