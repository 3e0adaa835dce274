open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir

type dspace = {
  stmt : Prog.stmt;
  access : Prog.access;
  space : Poly.t;
}

type partition = {
  array : string;
  rank : int;
  members : dspace list;
  union : Uset.t;
}

let space_of_access p (s : Prog.stmt) (a : Prog.access) =
  let np = Prog.nparams p in
  let depth = s.Prog.depth in
  let width = depth + np + 1 in
  (* image map: parameters first (copied through), then the array
     subscripts *)
  let param_rows =
    Array.init np (fun k ->
      let row = Vec.make width in
      row.(depth + k) <- Zint.one;
      row)
  in
  let map = Mat.append_rows param_rows a.Prog.map in
  Poly.image s.Prog.domain map

let spaces_of_array p name =
  List.map (fun (s, a) -> { stmt = s; access = a; space = space_of_access p s a })
    (Prog.all_accesses_to p name)

let compare_array cmp x y =
  let n = Array.length x in
  let rec go i =
    if i = n then 0
    else match cmp x.(i) y.(i) with 0 -> go (i + 1) | c -> c
  in
  match Int.compare n (Array.length y) with 0 -> go 0 | c -> c

(* Statement id, then the access: array, kind, and map with entries
   under [Zint.compare_sign_magnitude].  This is the order polymorphic
   [compare] gave when every Zint was a sign-magnitude record, so
   buffers keep their order and names.  Ids are unique within a program
   and a space is a function of its statement and access, so the space
   itself never decides. *)
let compare_dspace a b =
  let kind = function Prog.Read -> 0 | Prog.Write -> 1 in
  let ( >>? ) c k = if c <> 0 then c else k () in
  Int.compare a.stmt.Prog.id b.stmt.Prog.id >>? fun () ->
  String.compare a.access.Prog.array b.access.Prog.array >>? fun () ->
  Int.compare (kind a.access.Prog.kind) (kind b.access.Prog.kind) >>? fun () ->
  compare_array (compare_array Zint.compare_sign_magnitude)
    a.access.Prog.map b.access.Prog.map

(* Connected components of the overlap graph. *)
let components spaces =
  let n = List.length spaces in
  let arr = Array.of_list spaces in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let join i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Poly.is_empty (Poly.intersect arr.(i).space arr.(j).space))
      then join i j
    done
  done;
  let groups = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let r = find i in
    Hashtbl.replace groups r (arr.(i) :: (try Hashtbl.find groups r with Not_found -> []))
  done;
  Hashtbl.fold (fun _ members acc -> List.rev members :: acc) groups []
  |> List.sort (List.compare compare_dspace)

let partition_array p name =
  let decl = Prog.find_array p name in
  let np = Prog.nparams p in
  let dim = np + decl.Prog.rank in
  let spaces = spaces_of_array p name in
  List.map (fun members ->
    { array = name;
      rank = decl.Prog.rank;
      members;
      union = Uset.of_pieces ~dim (List.map (fun d -> d.space) members) })
    (components spaces)

let partition_all p =
  List.concat_map (fun (d : Prog.array_decl) ->
    partition_array p d.Prog.array_name)
    p.Prog.arrays

let merge_partitions parts =
  match parts with
  | [] -> invalid_arg "Dataspaces.merge_partitions: empty"
  | first :: rest ->
    if List.exists (fun p -> p.array <> first.array) rest then
      invalid_arg "Dataspaces.merge_partitions: mixed arrays";
    { array = first.array;
      rank = first.rank;
      members = List.concat_map (fun p -> p.members) parts;
      union = List.fold_left (fun acc p -> Uset.union acc p.union)
          first.union rest }

let union_of p part keep =
  let np = Prog.nparams p in
  let dim = np + part.rank in
  Uset.of_pieces ~dim
    (List.filter_map (fun d -> if keep d then Some d.space else None)
       part.members)

let reads_union p part =
  union_of p part (fun d -> d.access.Prog.kind = Prog.Read)

let writes_union p part =
  union_of p part (fun d -> d.access.Prog.kind = Prog.Write)

(* Sufficient test that the rational image has no integer "holes": all
   iterator coefficients are unit, and rows discharge one by one, each
   owning an iterator (unit coefficient) no other remaining row uses —
   the map is then completable to a unimodular change of basis, so
   every integer point of the image has an integer preimage.  Rows with
   no iterator at all (constant subscripts) are exact by themselves. *)
let exact_image (s : Prog.stmt) (a : Prog.access) =
  let depth = s.Prog.depth in
  let unit_coef v = Zint.compare (Zint.abs v) Zint.one <= 0 in
  let iter_part =
    Array.to_list (Array.map (fun row -> Array.sub row 0 depth) a.Prog.map)
  in
  List.for_all (fun r -> Array.for_all unit_coef r) iter_part
  && begin
    let remaining =
      ref
        (List.filter
           (fun r -> Array.exists (fun c -> not (Zint.is_zero c)) r)
           iter_part)
    in
    let progress = ref true in
    while !progress && !remaining <> [] do
      progress := false;
      let owns_pivot r =
        let found = ref false in
        Array.iteri (fun c v ->
          if
            (not !found)
            && (not (Zint.is_zero v))
            && List.for_all (fun r' -> r' == r || Zint.is_zero r'.(c))
                 !remaining
          then found := true)
          r;
        !found
      in
      match List.find_opt owns_pivot !remaining with
      | Some r ->
        remaining := List.filter (fun r' -> r' != r) !remaining;
        progress := true
      | None -> ()
    done;
    !remaining = []
  end

(* parameters are the leading dims; each fix shifts the rest down, so
   the next parameter is again dimension 0 *)
let instantiate_union prog ~env us =
  let np = Prog.nparams prog in
  let values = Array.map env prog.Prog.params in
  let fix_piece p =
    let p = ref p in
    for k = 0 to np - 1 do
      p := Poly.fix_dim !p 0 values.(k)
    done;
    !p
  in
  Uset.of_pieces ~dim:(Uset.dim us - np) (List.map fix_piece (Uset.pieces us))
