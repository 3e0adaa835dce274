open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir
open Emsc_codegen

type dim_spec = {
  block : int option;
  mem : int option;
  thread : int option;
}

let no_tiling = { block = None; mem = None; thread = None }

let spec_of_lists ~depth ~block ~mem ~thread =
  let get a j = if j < Array.length a && a.(j) > 0 then Some a.(j) else None in
  Array.init depth (fun j ->
    { block = get block j; mem = get mem j; thread = get thread j })

type spec = dim_spec array

(* --- unimodular re-indexing -------------------------------------------- *)

let integer_inverse u =
  let d = Mat.rows u in
  if Mat.cols u <> d then invalid_arg "Tile.apply_unimodular: not square";
  let cols =
    Array.init d (fun j ->
      match Mat.solve u (Vec.unit d j) with
      | None -> invalid_arg "Tile.apply_unimodular: singular"
      | Some qs ->
        Array.map (fun q ->
          if not (Q.is_integer q) then
            invalid_arg "Tile.apply_unimodular: not unimodular";
          Q.num q)
          qs)
  in
  (* cols.(j).(i) = (U^-1)_{i,j}; build row-major U^-1 *)
  Array.init d (fun i -> Array.init d (fun j -> cols.(j).(i)))

(* x = U^-1 y; rewrite a row over (x, params, 1) into (y, params, 1) *)
let rewrite_row ~uinv ~depth ~np (row : Vec.t) =
  let out = Vec.make (depth + np + 1) in
  for j = 0 to depth - 1 do
    let acc = ref Zint.zero in
    for i = 0 to depth - 1 do
      acc := Zint.add !acc (Zint.mul row.(i) uinv.(i).(j))
    done;
    out.(j) <- !acc
  done;
  for k = 0 to np do
    out.(depth + k) <- row.(depth + k)
  done;
  out

let apply_unimodular p u =
  let np = Prog.nparams p in
  let uinv = integer_inverse u in
  let depth = Mat.rows u in
  let rewrite_stmt (s : Prog.stmt) =
    if s.Prog.depth <> depth then
      invalid_arg "Tile.apply_unimodular: depth mismatch";
    let rw_rows rows = List.map (rewrite_row ~uinv ~depth ~np) rows in
    let eqs, ineqs = Poly.constraints s.Prog.domain in
    let domain =
      Poly.make ~dim:(depth + np) ~eqs:(rw_rows eqs) ~ineqs:(rw_rows ineqs)
    in
    let rw_access (a : Prog.access) =
      { a with Prog.map = Array.map (rewrite_row ~uinv ~depth ~np) a.Prog.map }
    in
    let rw_expr e =
      let rec go = function
        | Prog.Eref a -> Prog.Eref (rw_access a)
        | (Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _) as e -> e
        | Prog.Eneg e -> Prog.Eneg (go e)
        | Prog.Eabs e -> Prog.Eabs (go e)
        | Prog.Eadd (a, b) -> Prog.Eadd (go a, go b)
        | Prog.Esub (a, b) -> Prog.Esub (go a, go b)
        | Prog.Emul (a, b) -> Prog.Emul (go a, go b)
        | Prog.Ediv (a, b) -> Prog.Ediv (go a, go b)
        | Prog.Emin (a, b) -> Prog.Emin (go a, go b)
        | Prog.Emax (a, b) -> Prog.Emax (go a, go b)
      in
      go e
    in
    { s with
      Prog.domain;
      writes = List.map rw_access s.Prog.writes;
      reads = List.map rw_access s.Prog.reads;
      body =
        Option.map (fun (lhs, rhs) -> (rw_access lhs, rw_expr rhs)) s.Prog.body;
      schedule = Array.map (rewrite_row ~uinv ~depth ~np) s.Prog.schedule }
  in
  { p with Prog.stmts = List.map rewrite_stmt p.Prog.stmts }

(* --- tile-block program -------------------------------------------------- *)

let atomic_extent ds =
  match ds.mem, ds.block with
  | Some m, _ -> Some m
  | None, Some b -> Some b
  | None, None -> None

let origin_names (s : Prog.stmt) spec =
  List.filter_map (fun j ->
    match atomic_extent spec.(j) with
    | Some size ->
      let base = s.Prog.iter_names.(j) in
      let name =
        if spec.(j).mem <> None then base ^ "M"
        else base ^ "T"
      in
      Some (j, name, size)
    | None -> None)
    (List.init (Array.length spec) (fun j -> j))

let origin_context p spec =
  let np = Prog.nparams p in
  let stmt =
    match p.Prog.stmts with
    | [ s ] -> s
    | _ -> invalid_arg "Tile.origin_context: single-statement programs only"
  in
  let origins = origin_names stmt spec in
  let no = List.length origins in
  let rows =
    List.concat
      (List.mapi
         (fun k (j, _, _) ->
           match Poly.var_bounds_int stmt.Prog.domain j with
           | Some lo, Some hi ->
             let ge = Vec.make (np + no + 1) in
             ge.(np + k) <- Zint.one;
             ge.(np + no) <- Zint.neg lo;
             let le = Vec.make (np + no + 1) in
             le.(np + k) <- Zint.minus_one;
             le.(np + no) <- hi;
             [ ge; le ]
           | _ -> [])
         origins)
  in
  Poly.make ~dim:(np + no) ~eqs:[] ~ineqs:rows

let tile_program p spec =
  Emsc_obs.Prof.probe "tile.tile_program" @@ fun () ->
  let np = Prog.nparams p in
  let stmt =
    match p.Prog.stmts with
    | [ s ] -> s
    | _ -> invalid_arg "Tile.tile_program: single-statement programs only"
  in
  let depth = stmt.Prog.depth in
  if Array.length spec <> depth then invalid_arg "Tile.tile_program: spec size";
  let origins = origin_names stmt spec in
  let no = List.length origins in
  let params' =
    Array.append p.Prog.params
      (Array.of_list (List.map (fun (_, n, _) -> n) origins))
  in
  (* widen a row over (iters, params, 1) to (iters, params ++ origins, 1) *)
  let widen (row : Vec.t) =
    let out = Vec.make (depth + np + no + 1) in
    Array.blit row 0 out 0 (depth + np);
    out.(depth + np + no) <- row.(depth + np);
    out
  in
  let domain =
    let d = Poly.insert_dims stmt.Prog.domain ~pos:(depth + np) ~count:no in
    (* origin_k <= x_j <= origin_k + size - 1 *)
    List.fold_left (fun acc (k, (j, _, size)) ->
      let ge = Vec.make (depth + np + no + 2 - 1) in
      ge.(j) <- Zint.one;
      ge.(depth + np + k) <- Zint.minus_one;
      let le = Vec.make (depth + np + no + 1) in
      le.(j) <- Zint.minus_one;
      le.(depth + np + k) <- Zint.one;
      le.(depth + np + no) <- Zint.of_int (size - 1);
      Poly.add_ineq (Poly.add_ineq acc ge) le)
      d
      (List.mapi (fun k o -> (k, o)) origins)
  in
  let widen_access (a : Prog.access) =
    { a with Prog.map = Array.map widen a.Prog.map }
  in
  let widen_expr e =
    let rec go = function
      | Prog.Eref a -> Prog.Eref (widen_access a)
      | (Prog.Eiter _ | Prog.Eparam _ | Prog.Econst _) as e -> e
      | Prog.Eneg e -> Prog.Eneg (go e)
      | Prog.Eabs e -> Prog.Eabs (go e)
      | Prog.Eadd (a, b) -> Prog.Eadd (go a, go b)
      | Prog.Esub (a, b) -> Prog.Esub (go a, go b)
      | Prog.Emul (a, b) -> Prog.Emul (go a, go b)
      | Prog.Ediv (a, b) -> Prog.Ediv (go a, go b)
      | Prog.Emin (a, b) -> Prog.Emin (go a, go b)
      | Prog.Emax (a, b) -> Prog.Emax (go a, go b)
    in
    go e
  in
  let stmt' =
    { stmt with
      Prog.domain;
      writes = List.map widen_access stmt.Prog.writes;
      reads = List.map widen_access stmt.Prog.reads;
      body =
        Option.map (fun (lhs, rhs) -> (widen_access lhs, widen_expr rhs))
          stmt.Prog.body;
      schedule = Array.map widen stmt.Prog.schedule }
  in
  let arrays' =
    List.map (fun (d : Prog.array_decl) ->
      { d with
        Prog.extents =
          Array.map (fun row ->
            let out = Vec.make (np + no + 1) in
            Array.blit row 0 out 0 np;
            out.(np + no) <- row.(np);
            out)
            d.Prog.extents })
      p.Prog.arrays
  in
  { Prog.params = params'; arrays = arrays'; stmts = [ stmt' ] }

(* --- tiled loop-nest generation ------------------------------------------ *)

let movement_profile p spec (mi, mo) =
  let stmt =
    match p.Prog.stmts with
    | [ s ] -> s
    | _ -> invalid_arg "Tile.movement_profile: single-statement programs only"
  in
  let depth = stmt.Prog.depth in
  let bounds j =
    match Poly.var_bounds_int stmt.Prog.domain j with
    | Some lo, Some hi -> (Zint.to_int_exn lo, Zint.to_int_exn hi)
    | _ -> invalid_arg "Tile.movement_profile: unbounded domain"
  in
  let name j = stmt.Prog.iter_names.(j) in
  let dims = List.init depth (fun j -> j) in
  (* ordered outer levels: (var, kind, trips) *)
  let block_levels =
    List.filter_map (fun j ->
      Option.map (fun sz ->
        let lo, hi = bounds j in
        (name j ^ "T", `Block, float_of_int ((hi - lo + sz) / sz)))
        spec.(j).block)
      dims
  in
  let mem_levels =
    List.filter_map (fun j ->
      Option.map (fun sz ->
        let extent =
          match spec.(j).block with
          | Some b -> b
          | None -> let lo, hi = bounds j in hi - lo + 1
        in
        (name j ^ "M", `Mem, float_of_int ((extent + sz - 1) / sz)))
        spec.(j).mem)
      dims
  in
  let outer = block_levels @ mem_levels in
  let needed = Ast.free_vars (mi @ mo) in
  let rec depth_of i acc = function
    | [] -> acc
    | (v, _, _) :: rest ->
      let acc = if List.mem v needed then i + 1 else acc in
      depth_of (i + 1) acc rest
  in
  let n_block = List.length block_levels in
  let d = max n_block (depth_of 0 0 outer) in
  (* occurrences per block tile = product of trips of the mem levels
     the movement sits inside *)
  List.filteri (fun i _ -> i < d) outer
  |> List.fold_left
       (fun acc (_, kind, trips) ->
         match kind with `Mem -> acc *. trips | `Block -> acc)
       1.0

let block_tile_count p spec =
  let stmt =
    match p.Prog.stmts with
    | [ s ] -> s
    | _ -> invalid_arg "Tile.block_tile_count: single-statement programs only"
  in
  let depth = stmt.Prog.depth in
  let count = ref 1.0 in
  for j = 0 to depth - 1 do
    match spec.(j).block with
    | None -> ()
    | Some sz ->
      (match Poly.var_bounds_int stmt.Prog.domain j with
       | Some lo, Some hi ->
         let lo = Zint.to_int_exn lo and hi = Zint.to_int_exn hi in
         count := !count *. float_of_int ((hi - lo + sz) / sz)
       | _ -> invalid_arg "Tile.block_tile_count: unbounded domain")
  done;
  !count

(* --- inter-tile reuse: the innermost block origin ------------------------ *)

let innermost_block_dim spec =
  let last = ref None in
  Array.iteri (fun j (d : dim_spec) -> if d.block <> None then last := Some j)
    spec;
  !last

let inter_tile_origin p spec =
  match p.Prog.stmts with
  | [ s ] when Array.length spec = s.Prog.depth -> begin
    match innermost_block_dim spec with
    (* the delta is keyed on consecutive values of the *innermost*
       block origin — the one sequential task enumeration varies
       fastest.  A dim that is also mem-tiled exposes only its M origin
       to the plan, so it cannot carry the inter-tile delta. *)
    | Some j when spec.(j).mem = None ->
      let sz = match spec.(j).block with Some sz -> sz | None -> assert false in
      let mem_names =
        List.filter_map (fun k ->
          if spec.(k).mem <> None then Some (s.Prog.iter_names.(k) ^ "M")
          else None)
          (List.init (Array.length spec) (fun k -> k))
      in
      Some (s.Prog.iter_names.(j) ^ "T", sz, mem_names)
    | _ -> None
  end
  | _ -> None

type level = {
  var : string;
  lb : Ast.aexpr;
  ub : Ast.aexpr;
  step : int;
  par : Ast.parallelism;
}

let wrap lvl body =
  [ Ast.Loop
      { var = lvl.var; lb = lvl.lb; ub = lvl.ub;
        step = Zint.of_int lvl.step; par = lvl.par; body } ]

(* The domain constraints its bounding box does not imply, as guard
   expressions: every tiling level scans the box, so on a
   non-rectangular domain (a triangle, say) the statement call must
   still test its own inequalities.  A row is implied when its minimum
   over the box is non-negative, so a box domain gets no guard and its
   AST is unchanged.  An equality is guarded as two inequalities. *)
let box_guard domain bounds ~names =
  let eqs, ineqs = Poly.constraints domain in
  let implied (row : Vec.t) =
    let n = Array.length bounds in
    let least = ref row.(n) in
    Array.iteri (fun j (lo, hi) ->
      let at x = Zint.mul row.(j) (Zint.of_int x) in
      least := Zint.add !least (Zint.min (at lo) (at hi)))
      bounds;
    not (Zint.is_negative !least)
  in
  ineqs @ List.concat_map (fun e -> [ e; Vec.neg e ]) eqs
  |> List.filter (fun row -> not (implied row))
  |> List.map (Ast.vec_to_aexpr ~names)

let generate p spec ~movement =
  Emsc_obs.Prof.probe "tile.generate" @@ fun () ->
  let np = Prog.nparams p in
  if np <> 0 then
    invalid_arg "Tile.generate: program parameters must be instantiated";
  let stmt =
    match p.Prog.stmts with
    | [ s ] -> s
    | _ -> invalid_arg "Tile.generate: single-statement programs only"
  in
  let depth = stmt.Prog.depth in
  if Array.length spec <> depth then invalid_arg "Tile.generate: spec size";
  let bounds =
    Array.init depth (fun j ->
      match Poly.var_bounds_int stmt.Prog.domain j with
      | Some lo, Some hi -> (Zint.to_int_exn lo, Zint.to_int_exn hi)
      | _ -> invalid_arg "Tile.generate: unbounded domain")
  in
  let name j = stmt.Prog.iter_names.(j) in
  let dims = List.init depth (fun j -> j) in
  (* enclosing (var, extent) at each tiling level, per dim *)
  let block_origin j =
    Option.map (fun sz -> (name j ^ "T", sz)) spec.(j).block
  in
  let mem_origin j = Option.map (fun sz -> (name j ^ "M", sz)) spec.(j).mem in
  let thread_origin j =
    Option.map (fun sz -> (name j ^ "t", sz)) spec.(j).thread
  in
  let lo j = fst bounds.(j) and hi j = snd bounds.(j) in
  (* enclosing tile levels, innermost first: `Mem sees block; `Thread
     sees mem then block; `Point sees thread, mem, block *)
  let enclosing upto j =
    let cands =
      match upto with
      | `Mem -> [ block_origin j ]
      | `Thread -> [ mem_origin j; block_origin j ]
      | `Point -> [ thread_origin j; mem_origin j; block_origin j ]
    in
    List.filter_map (fun x -> x) cands
  in
  let lb_of upto j =
    (* the innermost enclosing origin is always >= the outer ones *)
    match enclosing upto j with
    | (v, _) :: _ -> Ast.Var v
    | [] -> Ast.int_ (lo j)
  in
  let ub_of upto j =
    (* every enclosing tile bounds the range: a mem tile larger than
       its block tile must not leak past the block tile's edge *)
    match enclosing upto j with
    | [] -> Ast.int_ (hi j)
    | levels ->
      Ast.simplify
        (Ast.Min
           (Ast.int_ (hi j)
            :: List.map (fun (v, sz) ->
                 Ast.Add (Ast.Var v, Ast.int_ (sz - 1)))
                 levels))
  in
  let block_levels =
    List.filter_map (fun j ->
      Option.map (fun sz ->
        { var = name j ^ "T"; lb = Ast.int_ (lo j); ub = Ast.int_ (hi j);
          step = sz; par = Ast.Block })
        spec.(j).block)
      dims
  in
  let mem_levels =
    List.filter_map (fun j ->
      Option.map (fun sz ->
        { var = name j ^ "M"; lb = lb_of `Mem j; ub = ub_of `Mem j;
          step = sz; par = Ast.Seq })
        spec.(j).mem)
      dims
  in
  let thread_levels =
    List.filter_map (fun j ->
      Option.map (fun sz ->
        { var = name j ^ "t"; lb = lb_of `Thread j; ub = ub_of `Thread j;
          step = sz; par = Ast.Thread })
        spec.(j).thread)
      dims
  in
  let point_levels =
    List.map (fun j ->
      { var = name j; lb = lb_of `Point j; ub = ub_of `Point j; step = 1;
        par = Ast.Seq })
      dims
  in
  let call =
    Ast.Stmt_call
      { stmt_id = stmt.Prog.id;
        iter_args = Array.init depth (fun j -> Ast.Var (name j)) }
  in
  let compute =
    match box_guard stmt.Prog.domain bounds ~names:name with
    | [] -> [ call ]
    | conds -> [ Ast.Guard (conds, [ call ]) ]
  in
  let inner_levels = thread_levels @ point_levels in
  let outer_levels = block_levels @ mem_levels in
  let n_outer = List.length outer_levels in
  let n_block = List.length block_levels in
  (* per-buffer movement depth: inside every outer level whose variable
     the movement code mentions (and inside all block levels, since the
     copies run per-block), outside the rest *)
  let depth_of (mi, mo) =
    let needed = Ast.free_vars (mi @ mo) in
    let rec deepest i acc = function
      | [] -> acc
      | lvl :: rest ->
        let acc = if List.mem lvl.var needed then i + 1 else acc in
        deepest (i + 1) acc rest
    in
    max n_block (deepest 0 0 outer_levels)
  in
  let pairs = List.map (fun m -> (depth_of m, m)) movement in
  let at_depth d =
    List.filter_map (fun (pd, m) -> if pd = d then Some m else None) pairs
  in
  let attach core ms =
    if ms = [] then core
    else begin
      let ins = List.concat_map fst ms in
      let outs = List.concat_map snd ms in
      ins @ (Ast.Fence :: core) @ (Ast.Fence :: outs)
    end
  in
  let core = ref (List.fold_right wrap inner_levels compute) in
  (* wrap outer levels from the innermost outwards, attaching each
     buffer's movement just inside the level it needs *)
  let rev_outer = List.rev outer_levels in
  List.iteri (fun k lvl ->
    let depth = n_outer - k in
    core := attach !core (at_depth depth);
    core := wrap lvl !core)
    rev_outer;
  core := attach !core (at_depth 0);
  !core
