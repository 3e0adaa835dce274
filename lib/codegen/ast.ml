open Emsc_arith

type aexpr =
  | Var of string
  | Const of Zint.t
  | Add of aexpr * aexpr
  | Sub of aexpr * aexpr
  | Mul of Zint.t * aexpr
  | Fdiv of aexpr * Zint.t
  | Cdiv of aexpr * Zint.t
  | Min of aexpr list
  | Max of aexpr list

type parallelism = Seq | Block | Thread

type ref_expr = { array : string; indices : aexpr array }

type stm =
  | Loop of loop
  | Guard of aexpr list * stm list
  | Stmt_call of { stmt_id : int; iter_args : aexpr array }
  | Copy of { dst : ref_expr; src : ref_expr }
  | Sync
  | Fence
  | Comment of string

and loop = {
  var : string;
  lb : aexpr;
  ub : aexpr;
  step : Zint.t;
  par : parallelism;
  body : stm list;
}

let int_ n = Const (Zint.of_int n)
let var s = Var s
let ( +: ) a b = Add (a, b)
let ( -: ) a b = Sub (a, b)
let ( *: ) c a = Mul (Zint.of_int c, a)

(* Flatten a purely affine subtree into (coefficient map, constant);
   [None] when it contains division or min/max. *)
let rec linearize e =
  match e with
  | Var s -> Some ([ (s, Zint.one) ], Zint.zero)
  | Const c -> Some ([], c)
  | Add (a, b) -> begin
    match linearize a, linearize b with
    | Some (ta, ca), Some (tb, cb) -> Some (ta @ tb, Zint.add ca cb)
    | _ -> None
  end
  | Sub (a, b) -> begin
    match linearize a, linearize b with
    | Some (ta, ca), Some (tb, cb) ->
      Some
        (ta @ List.map (fun (v, c) -> (v, Zint.neg c)) tb, Zint.sub ca cb)
    | _ -> None
  end
  | Mul (k, a) -> begin
    match linearize a with
    | Some (ta, ca) ->
      Some (List.map (fun (v, c) -> (v, Zint.mul k c)) ta, Zint.mul k ca)
    | None -> None
  end
  | Fdiv _ | Cdiv _ | Min _ | Max _ -> None

let rebuild_linear terms const =
  let merged = Hashtbl.create 8 in
  let order = ref [] in
  List.iter (fun (v, c) ->
    match Hashtbl.find_opt merged v with
    | Some c0 -> Hashtbl.replace merged v (Zint.add c0 c)
    | None ->
      Hashtbl.replace merged v c;
      order := v :: !order)
    terms;
  let parts =
    List.rev !order
    |> List.filter_map (fun v ->
         let c = Hashtbl.find merged v in
         if Zint.is_zero c then None
         else if Zint.is_one c then Some (Var v)
         else Some (Mul (c, Var v)))
  in
  match parts, Zint.is_zero const with
  | [], true -> Const Zint.zero
  | [], false -> Const const
  | e :: rest, true -> List.fold_left (fun acc x -> Add (acc, x)) e rest
  | e :: rest, false ->
    Add (List.fold_left (fun acc x -> Add (acc, x)) e rest, Const const)

(* The canonical order of Min/Max operands: constructors in declaration
   order, then fields left to right, lists lexicographically, constants
   by [Zint.compare_sign_magnitude].  This is the order polymorphic
   [compare] gave when every Zint was a sign-magnitude record, so the
   generated code keeps its operand order. *)
let rec compare_aexpr a b =
  let tag = function
    | Var _ -> 0 | Const _ -> 1 | Add _ -> 2 | Sub _ -> 3 | Mul _ -> 4
    | Fdiv _ -> 5 | Cdiv _ -> 6 | Min _ -> 7 | Max _ -> 8
  in
  let zc = Zint.compare_sign_magnitude in
  let ( >>? ) c k = if c <> 0 then c else k () in
  match a, b with
  | Var x, Var y -> String.compare x y
  | Const x, Const y -> zc x y
  | Add (a1, a2), Add (b1, b2) | Sub (a1, a2), Sub (b1, b2) ->
    compare_aexpr a1 b1 >>? fun () -> compare_aexpr a2 b2
  | Mul (k, x), Mul (l, y) -> zc k l >>? fun () -> compare_aexpr x y
  | Fdiv (x, k), Fdiv (y, l) | Cdiv (x, k), Cdiv (y, l) ->
    compare_aexpr x y >>? fun () -> zc k l
  | Min xs, Min ys | Max xs, Max ys -> List.compare compare_aexpr xs ys
  | _ -> Int.compare (tag a) (tag b)

let rec simplify e =
  match linearize e with
  | Some (terms, const) -> rebuild_linear terms const
  | None -> simplify_structural e

and simplify_structural e =
  match e with
  | Var _ | Const _ -> e
  | Add (a, b) -> begin
    match simplify a, simplify b with
    | Const x, Const y -> Const (Zint.add x y)
    | Const x, b' when Zint.is_zero x -> b'
    | a', Const y when Zint.is_zero y -> a'
    | a', b' -> Add (a', b')
  end
  | Sub (a, b) -> begin
    match simplify a, simplify b with
    | Const x, Const y -> Const (Zint.sub x y)
    | a', Const y when Zint.is_zero y -> a'
    | a', b' -> Sub (a', b')
  end
  | Mul (c, a) -> begin
    if Zint.is_zero c then Const Zint.zero
    else
      match simplify a with
      | Const x -> Const (Zint.mul c x)
      | a' when Zint.is_one c -> a'
      | a' -> Mul (c, a')
  end
  | Fdiv (a, d) -> begin
    match simplify a with
    | Const x -> Const (Zint.fdiv x d)
    | a' when Zint.is_one d -> a'
    | a' -> Fdiv (a', d)
  end
  | Cdiv (a, d) -> begin
    match simplify a with
    | Const x -> Const (Zint.cdiv x d)
    | a' when Zint.is_one d -> a'
    | a' -> Cdiv (a', d)
  end
  | Min es -> begin
    let es = List.map simplify es in
    let flat =
      List.concat_map (function Min xs -> xs | e -> [ e ]) es
    in
    let consts, rest =
      List.partition_map
        (function Const c -> Left c | e -> Right e)
        flat
    in
    let rest =
      match consts with
      | [] -> rest
      | c :: cs -> rest @ [ Const (List.fold_left Zint.min c cs) ]
    in
    match List.sort_uniq compare_aexpr rest with
    | [] -> invalid_arg "Ast.simplify: empty min"
    | [ e ] -> e
    | es -> Min es
  end
  | Max es -> begin
    let es = List.map simplify es in
    let flat =
      List.concat_map (function Max xs -> xs | e -> [ e ]) es
    in
    let consts, rest =
      List.partition_map
        (function Const c -> Left c | e -> Right e)
        flat
    in
    let rest =
      match consts with
      | [] -> rest
      | c :: cs -> rest @ [ Const (List.fold_left Zint.max c cs) ]
    in
    match List.sort_uniq compare_aexpr rest with
    | [] -> invalid_arg "Ast.simplify: empty max"
    | [ e ] -> e
    | es -> Max es
  end

let rec subst env e =
  match e with
  | Var s -> (match List.assoc_opt s env with Some e' -> e' | None -> e)
  | Const _ -> e
  | Add (a, b) -> Add (subst env a, subst env b)
  | Sub (a, b) -> Sub (subst env a, subst env b)
  | Mul (c, a) -> Mul (c, subst env a)
  | Fdiv (a, d) -> Fdiv (subst env a, d)
  | Cdiv (a, d) -> Cdiv (subst env a, d)
  | Min es -> Min (List.map (subst env) es)
  | Max es -> Max (List.map (subst env) es)

let rec eval env e =
  match e with
  | Var s -> env s
  | Const c -> c
  | Add (a, b) -> Zint.add (eval env a) (eval env b)
  | Sub (a, b) -> Zint.sub (eval env a) (eval env b)
  | Mul (c, a) -> Zint.mul c (eval env a)
  | Fdiv (a, d) -> Zint.fdiv (eval env a) d
  | Cdiv (a, d) -> Zint.cdiv (eval env a) d
  | Min (e0 :: es) ->
    List.fold_left (fun acc x -> Zint.min acc (eval env x)) (eval env e0) es
  | Max (e0 :: es) ->
    List.fold_left (fun acc x -> Zint.max acc (eval env x)) (eval env e0) es
  | Min [] | Max [] -> invalid_arg "Ast.eval: empty min/max"

let vec_to_aexpr ~names (row : Emsc_linalg.Vec.t) =
  let n = Array.length row - 1 in
  let terms = ref [] in
  for i = n - 1 downto 0 do
    if not (Zint.is_zero row.(i)) then
      terms := Mul (row.(i), Var (names i)) :: !terms
  done;
  let base =
    if Zint.is_zero row.(n) && !terms <> [] then None
    else Some (Const row.(n))
  in
  let all = !terms @ Option.to_list base in
  match all with
  | [] -> Const Zint.zero
  | e :: rest -> simplify (List.fold_left (fun acc x -> Add (acc, x)) e rest)

let loop_ ?(par = Seq) ?(step = 1) v ~lb ~ub body =
  Loop { var = v; lb; ub; step = Zint.of_int step; par; body }

module Sset = Set.Make (String)

let rec aexpr_vars acc = function
  | Var s -> Sset.add s acc
  | Const _ -> acc
  | Add (a, b) | Sub (a, b) -> aexpr_vars (aexpr_vars acc a) b
  | Mul (_, a) | Fdiv (a, _) | Cdiv (a, _) -> aexpr_vars acc a
  | Min es | Max es -> List.fold_left aexpr_vars acc es

let rec stm_free (bound, acc) s =
  match s with
  | Loop l ->
    let acc = Sset.union acc (Sset.diff (aexpr_vars Sset.empty l.lb) bound) in
    let acc = Sset.union acc (Sset.diff (aexpr_vars Sset.empty l.ub) bound) in
    let bound' = Sset.add l.var bound in
    let _, acc =
      List.fold_left (fun (b, a) s -> (b, snd (stm_free (b, a) s)))
        (bound', acc) l.body
    in
    (bound, acc)
  | Guard (conds, body) ->
    let acc =
      List.fold_left (fun a c -> Sset.union a (Sset.diff (aexpr_vars Sset.empty c) bound))
        acc conds
    in
    let _, acc =
      List.fold_left (fun (b, a) s -> (b, snd (stm_free (b, a) s)))
        (bound, acc) body
    in
    (bound, acc)
  | Stmt_call { iter_args; _ } ->
    let acc =
      Array.fold_left (fun a e -> Sset.union a (Sset.diff (aexpr_vars Sset.empty e) bound))
        acc iter_args
    in
    (bound, acc)
  | Copy { dst; src } ->
    let ref_vars acc (r : ref_expr) =
      Array.fold_left (fun a e -> Sset.union a (Sset.diff (aexpr_vars Sset.empty e) bound))
        acc r.indices
    in
    (bound, ref_vars (ref_vars acc dst) src)
  | Sync | Fence | Comment _ -> (bound, acc)

let free_vars stms =
  let _, acc =
    List.fold_left (fun (b, a) s -> (b, snd (stm_free (b, a) s)))
      (Sset.empty, Sset.empty) stms
  in
  Sset.elements acc

(* --- printing ----------------------------------------------------------- *)

let rec pp_aexpr fmt e =
  match e with
  | Var s -> Format.pp_print_string fmt s
  | Const c -> Zint.pp fmt c
  | Add (a, b) -> Format.fprintf fmt "%a + %a" pp_aexpr a pp_aexpr b
  | Sub (a, b) -> Format.fprintf fmt "%a - %a" pp_aexpr a pp_atom b
  | Mul (c, a) -> Format.fprintf fmt "%a*%a" Zint.pp c pp_atom a
  | Fdiv (a, d) -> Format.fprintf fmt "floord(%a, %a)" pp_aexpr a Zint.pp d
  | Cdiv (a, d) -> Format.fprintf fmt "ceild(%a, %a)" pp_aexpr a Zint.pp d
  | Min es ->
    Format.fprintf fmt "min(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ")
         pp_aexpr)
      es
  | Max es ->
    Format.fprintf fmt "max(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ")
         pp_aexpr)
      es

and pp_atom fmt e =
  match e with
  | Add _ | Sub _ -> Format.fprintf fmt "(%a)" pp_aexpr e
  | Var _ | Const _ | Mul _ | Fdiv _ | Cdiv _ | Min _ | Max _ ->
    pp_aexpr fmt e

let pp_ref fmt { array; indices } =
  Format.pp_print_string fmt array;
  Array.iter (fun i -> Format.fprintf fmt "[%a]" pp_aexpr i) indices

let rec pp_stm fmt s =
  match s with
  | Loop l ->
    let kw =
      match l.par with
      | Seq -> "for"
      | Block -> "forall_block"
      | Thread -> "forall_thread"
    in
    if Zint.is_one l.step then
      Format.fprintf fmt "@[<v 2>%s (%s = %a; %s <= %a; %s++) {@,%a@]@,}" kw
        l.var pp_aexpr l.lb l.var pp_aexpr l.ub l.var pp_block l.body
    else
      Format.fprintf fmt "@[<v 2>%s (%s = %a; %s <= %a; %s += %a) {@,%a@]@,}"
        kw l.var pp_aexpr l.lb l.var pp_aexpr l.ub l.var Zint.pp l.step
        pp_block l.body
  | Guard (conds, body) ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " && ")
         (fun f c -> Format.fprintf f "%a >= 0" pp_aexpr c))
      conds pp_block body
  | Stmt_call { stmt_id; iter_args } ->
    Format.fprintf fmt "S%d(%a);" stmt_id
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ")
         pp_aexpr)
      (Array.to_list iter_args)
  | Copy { dst; src } ->
    Format.fprintf fmt "%a = %a;" pp_ref dst pp_ref src
  | Sync -> Format.pp_print_string fmt "__syncthreads();"
  | Fence -> Format.pp_print_string fmt "__syncthreads(); /* + memory fence */"
  | Comment c -> Format.fprintf fmt "/* %s */" c

and pp_block fmt stms =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stm fmt stms
