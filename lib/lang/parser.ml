open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir

exception Error of string

type state = {
  mutable toks : Lexer.located list;
  mutable params : string list;        (* in declaration order *)
  mutable arrays : (string * Vec.t list) list;  (* extents over params *)
  mutable stmts : Prog.stmt list;      (* reversed *)
  mutable next_id : int;
}

let err_at (l : Lexer.located) fmt =
  Printf.ksprintf (fun s ->
    raise (Error (Printf.sprintf "line %d, col %d: %s" l.Lexer.line l.Lexer.col s)))
    fmt

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> raise (Error "unexpected end of token stream")

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let expect st tok =
  let t = peek st in
  if t.Lexer.tok = tok then advance st
  else err_at t "expected %s, found %s" (Lexer.describe tok)
      (Lexer.describe t.Lexer.tok)

let expect_id st =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.ID name ->
    advance st;
    name
  | other -> err_at t "expected an identifier, found %s" (Lexer.describe other)

(* --- affine expressions -------------------------------------------------- *)

(* Affine vectors over (iters ++ params ++ const); [iters] is the
   current loop nest, innermost last. *)
let aff_width ~iters st = List.length iters + List.length st.params + 1

let var_index ~iters st name =
  let rec find k = function
    | [] -> None
    | x :: rest -> if x = name then Some k else find (k + 1) rest
  in
  match find 0 iters with
  | Some k -> Some k
  | None -> begin
    match find 0 st.params with
    | Some k -> Some (List.length iters + k)
    | None -> None
  end

let const_vec ~iters st c =
  let v = Vec.make (aff_width ~iters st) in
  v.(aff_width ~iters st - 1) <- Zint.of_int c;
  v

let rec parse_aff st ~iters =
  let lhs = parse_aff_term st ~iters in
  parse_aff_rest st ~iters lhs

and parse_aff_rest st ~iters lhs =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.PLUS ->
    advance st;
    let rhs = parse_aff_term st ~iters in
    parse_aff_rest st ~iters (Vec.add lhs rhs)
  | Lexer.MINUS ->
    advance st;
    let rhs = parse_aff_term st ~iters in
    parse_aff_rest st ~iters (Vec.sub lhs rhs)
  | _ -> lhs

and parse_aff_term st ~iters =
  let lhs = parse_aff_factor st ~iters in
  let rec go acc =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.STAR ->
      advance st;
      let rhs = parse_aff_factor st ~iters in
      let w = aff_width ~iters st in
      let const_of v =
        let rec check k =
          if k >= w - 1 then true
          else Zint.is_zero v.(k) && check (k + 1)
        in
        if check 0 then Some v.(w - 1) else None
      in
      (match const_of acc, const_of rhs with
       | Some c, _ -> go (Vec.scale c rhs)
       | _, Some c -> go (Vec.scale c acc)
       | None, None ->
         err_at t "non-affine product in an index or bound expression")
    | _ -> acc
  in
  go lhs

and parse_aff_factor st ~iters =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.INT n ->
    advance st;
    const_vec ~iters st n
  | Lexer.MINUS ->
    advance st;
    Vec.neg (parse_aff_factor st ~iters)
  | Lexer.ID name -> begin
    advance st;
    match var_index ~iters st name with
    | Some k ->
      let v = Vec.make (aff_width ~iters st) in
      v.(k) <- Zint.one;
      v
    | None -> err_at t "unknown variable %s in affine expression" name
  end
  | Lexer.LPAREN ->
    advance st;
    let v = parse_aff st ~iters in
    expect st Lexer.RPAREN;
    v
  | other -> err_at t "unexpected %s in affine expression" (Lexer.describe other)

(* --- computational expressions ------------------------------------------- *)

let find_array st name =
  match List.assoc_opt name st.arrays with
  | Some extents -> extents
  | None -> raise (Error (Printf.sprintf "undeclared array %s" name))

let parse_access st ~iters ~kind name =
  let extents = find_array st name in
  let rank = List.length extents in
  let rows = ref [] in
  for _ = 1 to rank do
    expect st Lexer.LBRACKET;
    rows := parse_aff st ~iters :: !rows;
    expect st Lexer.RBRACKET
  done;
  (match (peek st).Lexer.tok with
   | Lexer.LBRACKET ->
     raise (Error (Printf.sprintf "too many subscripts on array %s" name))
   | _ -> ());
  { Prog.array = name; kind; map = Array.of_list (List.rev !rows) }

let rec parse_expr st ~iters ~reads =
  let lhs = parse_mul st ~iters ~reads in
  let rec go acc =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.PLUS ->
      advance st;
      let rhs = parse_mul st ~iters ~reads in
      go (Prog.Eadd (acc, rhs))
    | Lexer.MINUS ->
      advance st;
      let rhs = parse_mul st ~iters ~reads in
      go (Prog.Esub (acc, rhs))
    | _ -> acc
  in
  go lhs

and parse_mul st ~iters ~reads =
  let lhs = parse_unary st ~iters ~reads in
  let rec go acc =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.STAR ->
      advance st;
      go (Prog.Emul (acc, parse_unary st ~iters ~reads))
    | Lexer.SLASH ->
      advance st;
      go (Prog.Ediv (acc, parse_unary st ~iters ~reads))
    | _ -> acc
  in
  go lhs

and parse_unary st ~iters ~reads =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.MINUS ->
    advance st;
    Prog.Eneg (parse_unary st ~iters ~reads)
  | Lexer.INT n ->
    advance st;
    Prog.Econst (float_of_int n)
  | Lexer.KW_ABS ->
    advance st;
    expect st Lexer.LPAREN;
    let e = parse_expr st ~iters ~reads in
    expect st Lexer.RPAREN;
    Prog.Eabs e
  | Lexer.KW_MIN | Lexer.KW_MAX ->
    let is_min = t.Lexer.tok = Lexer.KW_MIN in
    advance st;
    expect st Lexer.LPAREN;
    let a = parse_expr st ~iters ~reads in
    expect st Lexer.COMMA;
    let b = parse_expr st ~iters ~reads in
    expect st Lexer.RPAREN;
    if is_min then Prog.Emin (a, b) else Prog.Emax (a, b)
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st ~iters ~reads in
    expect st Lexer.RPAREN;
    e
  | Lexer.ID name -> begin
    advance st;
    match (peek st).Lexer.tok with
    | Lexer.LBRACKET ->
      let acc = parse_access st ~iters ~kind:Prog.Read name in
      reads := acc :: !reads;
      Prog.Eref acc
    | _ -> begin
      match var_index ~iters st name with
      | Some k when k < List.length iters -> Prog.Eiter k
      | Some k -> Prog.Eparam (k - List.length iters)
      | None -> err_at t "unknown identifier %s" name
    end
  end
  | other -> err_at t "unexpected %s in expression" (Lexer.describe other)

(* --- statements ------------------------------------------------------------ *)

(* Loop context: per enclosing loop, the lower/upper affine bound over
   the iterators outside it (plus params).  Rows are widened to the
   full statement width when a statement is created. *)
type loop_info = {
  iter : string;
  lb : Vec.t;  (* over (outer iters ++ params ++ 1) *)
  ub : Vec.t;
}

let widen_bound ~np ~depth ~loop_index row =
  (* row over (loop_index iters ++ params ++ 1) -> (depth ++ params ++ 1) *)
  let out = Vec.make (depth + np + 1) in
  Array.blit row 0 out 0 loop_index;
  for k = 0 to np do
    out.(depth + k) <- row.(loop_index + k)
  done;
  out

let domain_of_loops st loops =
  let np = List.length st.params in
  let depth = List.length loops in
  let rows =
    List.concat
      (List.mapi
         (fun k (li : loop_info) ->
           let lb = widen_bound ~np ~depth ~loop_index:k li.lb in
           let ub = widen_bound ~np ~depth ~loop_index:k li.ub in
           (* i_k - lb >= 0  and  ub - i_k >= 0 *)
           let ge = Vec.neg lb in
           ge.(k) <- Zint.add ge.(k) Zint.one;
           let le = Vec.copy ub in
           le.(k) <- Zint.sub le.(k) Zint.one;
           [ ge; le ])
         loops)
  in
  Poly.make ~dim:(depth + np) ~eqs:[] ~ineqs:rows

let rec parse_stm st ~loops ~beta_rev ~position =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.KW_FOR ->
    advance st;
    expect st Lexer.LPAREN;
    let iter = expect_id st in
    expect st Lexer.ASSIGN;
    let outer_iters = List.map (fun l -> l.iter) loops in
    let lb = parse_aff st ~iters:outer_iters in
    expect st Lexer.SEMI;
    let iter2 = expect_id st in
    if iter2 <> iter then err_at t "loop condition must test %s" iter;
    let strict = (peek st).Lexer.tok = Lexer.LT in
    (match (peek st).Lexer.tok with
     | Lexer.LE | Lexer.LT -> advance st
     | other -> err_at t "expected <= or <, found %s" (Lexer.describe other));
    let ub = parse_aff st ~iters:outer_iters in
    let ub =
      if strict then begin
        let u = Vec.copy ub in
        let last = Array.length u - 1 in
        u.(last) <- Zint.sub u.(last) Zint.one;
        u
      end
      else ub
    in
    expect st Lexer.SEMI;
    let iter3 = expect_id st in
    if iter3 <> iter then err_at t "increment must update %s" iter;
    expect st Lexer.INCR;
    expect st Lexer.RPAREN;
    expect st Lexer.LBRACE;
    let inner = { iter; lb; ub } in
    let pos = ref 0 in
    let rec body () =
      match (peek st).Lexer.tok with
      | Lexer.RBRACE -> advance st
      | _ ->
        parse_stm st ~loops:(loops @ [ inner ])
          ~beta_rev:(position :: beta_rev) ~position:!pos;
        incr pos;
        body ()
    in
    body ()
  | Lexer.ID name -> begin
    advance st;
    let iters = List.map (fun l -> l.iter) loops in
    let lhs = parse_access st ~iters ~kind:Prog.Write name in
    let reads = ref [] in
    let op = peek st in
    let rhs =
      match op.Lexer.tok with
      | Lexer.ASSIGN ->
        advance st;
        parse_expr st ~iters ~reads
      | Lexer.PLUS_ASSIGN ->
        advance st;
        let self = { lhs with Prog.kind = Prog.Read } in
        reads := self :: !reads;
        Prog.Eadd (Prog.Eref self, parse_expr st ~iters ~reads)
      | other -> err_at op "expected = or +=, found %s" (Lexer.describe other)
    in
    expect st Lexer.SEMI;
    let depth = List.length loops in
    let np = List.length st.params in
    let beta = List.rev (position :: beta_rev) in
    let id = st.next_id in
    st.next_id <- id + 1;
    let stmt =
      { Prog.id;
        name = Printf.sprintf "S%d" id;
        depth;
        domain = domain_of_loops st loops;
        iter_names = Array.of_list iters;
        writes = [ lhs ];
        reads = List.rev !reads;
        body = Some (lhs, rhs);
        schedule = Build.schedule_2d1 ~np ~depth ~beta }
    in
    st.stmts <- stmt :: st.stmts
  end
  | other -> err_at t "expected a loop or an assignment, found %s"
      (Lexer.describe other)

let parse_decls st =
  let rec go () =
    match (peek st).Lexer.tok with
    | Lexer.KW_PARAM ->
      advance st;
      let name = expect_id st in
      expect st Lexer.SEMI;
      st.params <- st.params @ [ name ];
      go ()
    | Lexer.KW_ARRAY ->
      advance st;
      let name = expect_id st in
      let extents = ref [] in
      let rec dims () =
        match (peek st).Lexer.tok with
        | Lexer.LBRACKET ->
          advance st;
          (* extents range over parameters only *)
          extents := parse_aff st ~iters:[] :: !extents;
          expect st Lexer.RBRACKET;
          dims ()
        | _ -> ()
      in
      dims ();
      expect st Lexer.SEMI;
      if !extents = [] then
        raise (Error (Printf.sprintf "array %s needs at least one dimension" name));
      st.arrays <- st.arrays @ [ (name, List.rev !extents) ];
      go ()
    | _ -> ()
  in
  go ()

let parse src =
  let st =
    { toks = Lexer.tokenize src; params = []; arrays = []; stmts = [];
      next_id = 1 }
  in
  parse_decls st;
  (* re-parse array extents is unnecessary: they were parsed with the
     params known so far; require all params declared before arrays *)
  let pos = ref 0 in
  let rec top () =
    match (peek st).Lexer.tok with
    | Lexer.EOF -> ()
    | _ ->
      parse_stm st ~loops:[] ~beta_rev:[] ~position:!pos;
      incr pos;
      top ()
  in
  top ();
  let prog =
    { Prog.params = Array.of_list st.params;
      arrays =
        List.map (fun (name, extents) ->
          { Prog.array_name = name;
            rank = List.length extents;
            extents = Array.of_list extents })
          st.arrays;
      stmts = List.rev st.stmts }
  in
  match Prog.validate prog with
  | Ok () -> prog
  | Error e -> raise (Error ("inconsistent program: " ^ e))
