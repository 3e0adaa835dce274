open Emsc_linalg
open Emsc_poly

type access_kind = Read | Write

type access = {
  array : string;
  kind : access_kind;
  map : Mat.t;
}

type expr =
  | Eref of access
  | Eiter of int
  | Eparam of int
  | Econst of float
  | Eneg of expr
  | Eabs of expr
  | Eadd of expr * expr
  | Esub of expr * expr
  | Emul of expr * expr
  | Ediv of expr * expr
  | Emin of expr * expr
  | Emax of expr * expr

type stmt = {
  id : int;
  name : string;
  depth : int;
  domain : Poly.t;
  iter_names : string array;
  writes : access list;
  reads : access list;
  body : (access * expr) option;
  schedule : Mat.t;
}

type array_decl = {
  array_name : string;
  rank : int;
  extents : Vec.t array;
}

type t = {
  params : string array;
  arrays : array_decl list;
  stmts : stmt list;
}

let nparams p = Array.length p.params

let find_array p name =
  match List.find_opt (fun a -> a.array_name = name) p.arrays with
  | Some a -> a
  | None -> invalid_arg ("Prog.find_array: undeclared array " ^ name)

let find_stmt p id =
  match List.find_opt (fun s -> s.id = id) p.stmts with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Prog.find_stmt: no statement %d" id)

let accesses s = s.writes @ s.reads

let all_accesses_to p name =
  List.concat_map (fun s ->
    List.filter_map (fun a -> if a.array = name then Some (s, a) else None)
      (accesses s))
    p.stmts

let mk_access ~array ~kind ~rows = { array; kind; map = Mat.of_ints rows }

let rec expr_accesses = function
  | Eref a -> [ a ]
  | Eiter _ | Eparam _ | Econst _ -> []
  | Eneg e | Eabs e -> expr_accesses e
  | Eadd (a, b) | Esub (a, b) | Emul (a, b) | Ediv (a, b)
  | Emin (a, b) | Emax (a, b) ->
    expr_accesses a @ expr_accesses b

let validate p =
  let np = nparams p in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_stmt s =
    let width = s.depth + np + 1 in
    if Poly.dim s.domain <> s.depth + np then
      err "stmt %s: domain dim %d <> depth %d + nparams %d" s.name
        (Poly.dim s.domain) s.depth np
    else if Array.length s.iter_names <> s.depth then
      err "stmt %s: %d iterator names for depth %d" s.name
        (Array.length s.iter_names) s.depth
    else if Mat.cols s.schedule <> width && Mat.rows s.schedule > 0 then
      err "stmt %s: schedule width %d <> %d" s.name (Mat.cols s.schedule) width
    else begin
      let check_access a =
        match List.find_opt (fun d -> d.array_name = a.array) p.arrays with
        | None -> err "stmt %s: undeclared array %s" s.name a.array
        | Some decl ->
          if Mat.rows a.map <> decl.rank then
            err "stmt %s: access to %s has %d rows, array rank %d" s.name
              a.array (Mat.rows a.map) decl.rank
          else if Mat.cols a.map <> width then
            err "stmt %s: access to %s width %d <> %d" s.name a.array
              (Mat.cols a.map) width
          else Ok ()
      in
      let rec all = function
        | [] -> Ok ()
        | a :: rest -> (match check_access a with Ok () -> all rest | e -> e)
      in
      match all (accesses s) with
      | Error _ as e -> e
      | Ok () -> begin
        (* body accesses must be drawn from the declared access lists *)
        match s.body with
        | None -> Ok ()
        | Some (lhs, rhs) ->
          if lhs.kind <> Write then err "stmt %s: lhs access is not a write" s.name
          else if
            List.exists (fun a -> a.kind <> Read) (expr_accesses rhs)
          then err "stmt %s: rhs contains a write access" s.name
          else all (lhs :: expr_accesses rhs)
      end
    end
  in
  let check_arrays () =
    let rec go = function
      | [] -> Ok ()
      | d :: rest ->
        if Array.length d.extents <> d.rank then
          err "array %s: %d extents for rank %d" d.array_name
            (Array.length d.extents) d.rank
        else if
          Array.exists (fun e -> Array.length e <> np + 1) d.extents
        then err "array %s: extent width <> nparams+1" d.array_name
        else go rest
    in
    go p.arrays
  in
  match check_arrays () with
  | Error _ as e -> e
  | Ok () ->
    let rec go = function
      | [] -> Ok ()
      | s :: rest -> (match check_stmt s with Ok () -> go rest | e -> e)
    in
    go p.stmts

let max_schedule_rows p =
  List.fold_left (fun acc s -> Stdlib.max acc (Mat.rows s.schedule)) 0 p.stmts

let pad_schedules p =
  let target = max_schedule_rows p in
  let np = nparams p in
  let pad s =
    let have = Mat.rows s.schedule in
    if have >= target then s
    else begin
      let width = s.depth + np + 1 in
      let zeros = Array.init (target - have) (fun _ -> Vec.make width) in
      { s with schedule = Mat.append_rows s.schedule zeros }
    end
  in
  { p with stmts = List.map pad p.stmts }

let pp_access fmt a =
  Format.fprintf fmt "%s%s[" (match a.kind with Read -> "R:" | Write -> "W:")
    a.array;
  Array.iteri (fun i row ->
    if i > 0 then Format.fprintf fmt ", ";
    Vec.pp fmt row)
    a.map;
  Format.fprintf fmt "]"

let pp_stmt p fmt s =
  let np = nparams p in
  let names =
    Array.append s.iter_names (Array.sub p.params 0 np)
  in
  Format.fprintf fmt "@[<v 2>%s (depth %d):@ domain %a@ %a@]" s.name s.depth
    (Poly.pp_named names) s.domain
    (Format.pp_print_list pp_access)
    (accesses s)

let pp fmt p =
  Format.fprintf fmt "@[<v>params: %s@ %a@]"
    (String.concat ", " (Array.to_list p.params))
    (Format.pp_print_list (pp_stmt p))
    p.stmts
