open Emsc_arith
open Emsc_linalg
open Emsc_poly

type kind = Flow | Anti | Output

type t = {
  src : Prog.stmt;
  dst : Prog.stmt;
  src_access : Prog.access;
  dst_access : Prog.access;
  kind : kind;
  level : int;
  poly : Poly.t;
}

(* Re-express a row over (depth + np + 1) in the combined space
   (ds + dt + np + 1).  [role] places the iterator block. *)
let embed_row ~ds ~dt ~np ~role (row : Vec.t) =
  let depth = match role with `Src -> ds | `Dst -> dt in
  let out = Vec.make (ds + dt + np + 1) in
  let iter_off = match role with `Src -> 0 | `Dst -> ds in
  for i = 0 to depth - 1 do
    out.(iter_off + i) <- row.(i)
  done;
  for k = 0 to np - 1 do
    out.(ds + dt + k) <- row.(depth + k)
  done;
  out.(ds + dt + np) <- row.(depth + np);
  out

(* sched_s row minus sched_t row, in the combined space *)
let sched_diff ~ds ~dt ~np srow trow =
  Vec.sub
    (embed_row ~ds ~dt ~np ~role:`Src srow)
    (embed_row ~ds ~dt ~np ~role:`Dst trow)

let embed_domain ~ds ~dt ~np ~role dom =
  (* domain over (depth + np): insert the other statement's iterator
     block to reach (ds + dt + np) *)
  ignore np;
  match role with
  | `Src -> Poly.insert_dims dom ~pos:ds ~count:dt
  | `Dst -> Poly.insert_dims dom ~pos:0 ~count:ds

let kind_of src_k dst_k =
  match src_k, dst_k with
  | Prog.Write, Prog.Read -> Some Flow
  | Prog.Read, Prog.Write -> Some Anti
  | Prog.Write, Prog.Write -> Some Output
  | Prog.Read, Prog.Read -> None

let analyze ?context p =
  Emsc_obs.Prof.probe "deps.analyze" @@ fun () ->
  let p = Prog.pad_schedules p in
  let np = Prog.nparams p in
  let sched_rows = Prog.max_schedule_rows p in
  let deps = ref [] in
  let context_rows =
    match context with
    | None -> []
    | Some ctx ->
      if Poly.dim ctx <> np then invalid_arg "Deps.analyze: context dim";
      let eqs, ineqs = Poly.constraints ctx in
      List.map (fun r -> (`Eq, r)) eqs @ List.map (fun r -> (`Ge, r)) ineqs
  in
  let for_pair (s : Prog.stmt) (sa : Prog.access) (t : Prog.stmt)
      (ta : Prog.access) kind =
    let ds = s.Prog.depth and dt = t.Prog.depth in
    let cdim = ds + dt + np in
    (* conflicting access: F_s(is) = F_t(it) *)
    let conflict_eqs =
      List.init (Mat.rows sa.Prog.map) (fun i ->
        sched_diff ~ds ~dt ~np sa.Prog.map.(i) ta.Prog.map.(i))
    in
    let base =
      Poly.intersect
        (embed_domain ~ds ~dt ~np ~role:`Src s.Prog.domain)
        (embed_domain ~ds ~dt ~np ~role:`Dst t.Prog.domain)
    in
    let base = List.fold_left Poly.add_eq base conflict_eqs in
    let widen_ctx row =
      (* context row over (np + 1) -> combined space *)
      let out = Vec.make (cdim + 1) in
      for k = 0 to np - 1 do
        out.(ds + dt + k) <- row.(k)
      done;
      out.(cdim) <- row.(np);
      out
    in
    let base =
      List.fold_left (fun acc (rel, row) ->
        let row = widen_ctx row in
        match rel with
        | `Eq -> Poly.add_eq acc row
        | `Ge -> Poly.add_ineq acc row)
        base context_rows
    in
    (* one polyhedron per precedence level *)
    for level = 0 to sched_rows - 1 do
      let cur = ref base in
      for l = 0 to level - 1 do
        cur :=
          Poly.add_eq !cur
            (sched_diff ~ds ~dt ~np s.Prog.schedule.(l) t.Prog.schedule.(l))
      done;
      (* strict: sched_t(level) - sched_s(level) - 1 >= 0 *)
      let strict =
        let d =
          Vec.neg
            (sched_diff ~ds ~dt ~np s.Prog.schedule.(level)
               t.Prog.schedule.(level))
        in
        d.(cdim) <- Zint.sub d.(cdim) Zint.one;
        d
      in
      let dep_poly = Poly.add_ineq !cur strict in
      (* the rational witness settles most levels: none means empty,
         an integral one means non-empty; only a fractional witness
         needs branch-and-bound *)
      let nonempty =
        if Poly.is_trivially_empty dep_poly then false
        else
          match Poly.sample_rational dep_poly with
          | None -> false
          | Some q when Array.for_all Q.is_integer q -> true
          | Some _ -> (
            match Emsc_pip.Ilp.is_int_empty dep_poly with
            | empty -> not empty
            | exception Emsc_pip.Ilp.Gave_up -> true)
      in
      Emsc_obs.Prof.add "deps.levels_tested" 1.0;
      if nonempty then begin
        Emsc_obs.Prof.add "deps.found" 1.0;
        deps :=
          { src = s; dst = t; src_access = sa; dst_access = ta; kind; level;
            poly = dep_poly }
          :: !deps
      end
    done
  in
  List.iter (fun (s : Prog.stmt) ->
    List.iter (fun (t : Prog.stmt) ->
      List.iter (fun (sa : Prog.access) ->
        List.iter (fun (ta : Prog.access) ->
          if sa.Prog.array = ta.Prog.array then
            match kind_of sa.Prog.kind ta.Prog.kind with
            | Some kind -> for_pair s sa t ta kind
            | None -> ())
          (Prog.accesses t))
        (Prog.accesses s))
      p.Prog.stmts)
    p.Prog.stmts;
  List.rev !deps

let pp fmt d =
  let k =
    match d.kind with Flow -> "flow" | Anti -> "anti" | Output -> "output"
  in
  Format.fprintf fmt "%s dep %s -> %s on %s at level %d" k d.src.Prog.name
    d.dst.Prog.name d.src_access.Prog.array d.level
