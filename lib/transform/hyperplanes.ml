open Emsc_arith
open Emsc_linalg
open Emsc_ir
open Emsc_pip

let dep_obj (d : Deps.t) (h : Vec.t) np =
  let ds = d.Deps.src.Prog.depth and dt = d.Deps.dst.Prog.depth in
  let obj = Vec.make (ds + dt + np + 1) in
  Array.iteri (fun i c -> obj.(i) <- Zint.neg c) h;
  Array.iteri (fun i c -> obj.(ds + i) <- c) h;
  obj

(* Integer min or max of [h.target - h.source] over the dependence
   polyhedron; [None] when unbounded on that side or the search gave
   up, zero when the polyhedron has no integer point. *)
let dep_component solve p (d : Deps.t) h =
  match solve d.Deps.poly (dep_obj d h (Prog.nparams p)) with
  | Ilp.Opt (v, _) -> Some v
  | Ilp.Unbounded -> None
  | Ilp.Empty -> Some Zint.zero
  | exception Ilp.Gave_up -> None

type band = {
  hyperplanes : Vec.t list;
  parallel : bool list;
}

(* A legal hyperplane gives every dependence a non-negative minimal
   component, so only the minima are solved, stopping at the first
   dependence that fails.  The maxima are solved once per dependence
   and only for legal hyperplanes: [h] is communication-free when every
   maximum is at most zero, and its communication volume proxy is the
   sum of the (capped) maxima. *)
let classify p deps h =
  let legal d =
    match dep_component Ilp.minimize p d h with
    | Some v -> not (Zint.is_negative v)
    | None -> false
  in
  if not (List.for_all legal deps) then None
  else begin
    let maxima = List.map (fun d -> dep_component Ilp.maximize p d h) deps in
    let parallel =
      List.for_all (function
        | Some v -> not (Zint.is_positive v)
        | None -> false)
        maxima
    in
    let cost =
      List.fold_left (fun acc -> function
        | Some v -> acc + max 0 (Zint.to_int_exn (Zint.min v (Zint.of_int 100)))
        | None -> acc + 100)
        0 maxima
    in
    Some (h, parallel, cost)
  end

let candidates ~max_coeff depth =
  let rec build dims =
    if dims = 0 then [ [] ]
    else begin
      let rest = build (dims - 1) in
      List.concat_map (fun tail ->
        List.init ((2 * max_coeff) + 1) (fun k -> (k - max_coeff) :: tail))
        rest
    end
  in
  let all = build depth in
  let vecs =
    List.filter_map (fun l ->
      let v = Vec.of_ints l in
      if Vec.is_zero v then None
      else begin
        (* normalize: content 1, first nonzero positive *)
        let v = Vec.normalize v in
        let rec first i = if Zint.is_zero v.(i) then first (i + 1) else v.(i) in
        Some (if Zint.is_negative (first 0) then Vec.neg v else v)
      end)
      all
  in
  let simplicity v =
    Array.fold_left (fun acc c -> acc + Zint.to_int_exn (Zint.abs c)) 0 v
  in
  List.sort_uniq Vec.compare vecs
  |> List.sort (fun a b -> compare (simplicity a) (simplicity b))

let independent chosen v =
  let m = Array.of_list (v :: chosen) in
  Mat.rank m = List.length chosen + 1

let find_band ?(max_coeff = 1) p deps =
  Emsc_obs.Prof.probe "hyperplanes.find_band" @@ fun () ->
  let depth =
    match p.Prog.stmts with
    | [] -> invalid_arg "Hyperplanes.find_band: empty program"
    | s :: rest ->
      if List.exists (fun t -> t.Prog.depth <> s.Prog.depth) rest then
        invalid_arg "Hyperplanes.find_band: statements of unequal depth";
      s.Prog.depth
  in
  let cands = candidates ~max_coeff depth in
  Emsc_obs.Prof.add "hyperplanes.candidates" (float_of_int (List.length cands));
  let legal_cands = List.filter_map (classify p deps) cands in
  Emsc_obs.Prof.add "hyperplanes.legal"
    (float_of_int (List.length legal_cands));
  let chosen = ref [] in
  let flags = ref [] in
  let continue_ = ref true in
  while !continue_ && List.length !chosen < depth do
    let avail =
      List.filter (fun (h, _, _) -> independent !chosen h) legal_cands
    in
    match avail with
    | [] -> continue_ := false
    | _ ->
      let best =
        List.fold_left (fun (bh, bp, bc) (h, par, cost) ->
          if
            (par && not bp)
            || (par = bp && cost < bc)
          then (h, par, cost)
          else (bh, bp, bc))
          (match avail with x :: _ -> x | [] -> assert false)
          (List.tl avail)
      in
      let h, par, _ = best in
      chosen := !chosen @ [ h ];
      flags := !flags @ [ par ]
  done;
  (* order space-first, preserving relative order otherwise *)
  let pairs = List.combine !chosen !flags in
  let space, time = List.partition snd pairs in
  let ordered = space @ time in
  { hyperplanes = List.map fst ordered; parallel = List.map snd ordered }

let transform_matrix band ~depth =
  if List.length band.hyperplanes <> depth then None
  else begin
    let m = Array.of_list band.hyperplanes in
    if Zint.is_one (Zint.abs (Mat.det m)) then Some m else None
  end
