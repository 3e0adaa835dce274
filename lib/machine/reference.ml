open Emsc_arith
open Emsc_linalg
open Emsc_poly
open Emsc_ir

(* --- enumeration ---------------------------------------------------------- *)

(* integer points of a statement domain with parameters fixed, in
   lexicographic order: the shared Fourier–Motzkin walk of {!Count}
   hands each prefix's innermost range, enumerated here *)
let domain_points (s : Prog.stmt) ~np ~param_values =
  (* fix the trailing parameter dims *)
  let fixed =
    let rec go k p =
      if k >= np then p
      else go (k + 1) (Poly.fix_dim p s.Prog.depth param_values.(k))
    in
    go 0 s.Prog.domain
  in
  let n = s.Prog.depth in
  let acc = ref [] in
  let points x lo hi =
    let v = ref lo in
    while Zint.compare !v hi <= 0 do
      if n > 0 then x.(n - 1) <- !v;
      acc := Array.copy x :: !acc;
      v := Zint.add !v Zint.one
    done
  in
  match Count.iter_ranges fixed points with
  | `Bounded -> List.rev !acc
  | `Unbounded -> invalid_arg ("Reference: unbounded domain in " ^ s.Prog.name)

let schedule_time (s : Prog.stmt) ~np ~param_values iters =
  Array.map (fun row ->
    let acc = ref row.(s.Prog.depth + np) in
    Array.iteri (fun i v ->
      acc := Zint.add !acc (Zint.mul row.(i) v))
      iters;
    for k = 0 to np - 1 do
      acc := Zint.add !acc (Zint.mul row.(s.Prog.depth + k) param_values.(k))
    done;
    !acc)
    s.Prog.schedule

let compare_times a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then compare (Array.length a) (Array.length b)
    else begin
      let c = Zint.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0

let instances p ~param_env =
  let p = Prog.pad_schedules p in
  let np = Prog.nparams p in
  let param_values =
    Array.map (fun name -> param_env name) p.Prog.params
  in
  let all =
    List.concat_map (fun (s : Prog.stmt) ->
      List.map (fun iters ->
        (schedule_time s ~np ~param_values iters, (s, iters)))
        (domain_points s ~np ~param_values))
      p.Prog.stmts
  in
  List.map snd (List.sort (fun (ta, _) (tb, _) -> compare_times ta tb) all)

(* --- execution ------------------------------------------------------------ *)

(* The oracle's own evaluator, independent of {!Exec}'s lowered code:
   each instance's body is walked as a tree, every subscript evaluated
   exactly in [Zint], every array found by name. *)
let run p ~param_env memory ?on_global () =
  let insts = instances p ~param_env in
  let np = Prog.nparams p in
  let param_values = Array.map (fun name -> param_env name) p.Prog.params in
  let c = Exec.fresh () in
  let index (s : Prog.stmt) (a : Prog.access) iters =
    Array.map (fun (row : Vec.t) ->
      let depth = s.Prog.depth in
      let acc = ref row.(depth + np) in
      for i = 0 to depth - 1 do
        acc := Zint.add !acc (Zint.mul row.(i) iters.(i))
      done;
      for k = 0 to np - 1 do
        if not (Zint.is_zero row.(depth + k)) then
          acc := Zint.add !acc (Zint.mul row.(depth + k) param_values.(k))
      done;
      Zint.to_int_exn !acc)
      a.Prog.map
  in
  let touch (a : Prog.access) idx kind =
    match on_global with
    | Some f ->
      f a.Prog.array
        (Memory.base_address memory a.Prog.array
         + Memory.flat_index memory a.Prog.array idx)
        kind
    | None -> ()
  in
  let read s (a : Prog.access) iters =
    let idx = index s a iters in
    c.Exec.g_ld <- c.Exec.g_ld +. 1.0;
    touch a idx `Ld;
    Memory.read_global memory a.Prog.array idx
  in
  let rec eval s iters (e : Prog.expr) =
    match e with
    | Prog.Eref a -> read s a iters
    | Prog.Eiter i -> Zint.to_float iters.(i)
    | Prog.Eparam k -> Zint.to_float param_values.(k)
    | Prog.Econst f -> f
    | Prog.Eneg e -> -.eval s iters e
    | Prog.Eabs e -> Float.abs (eval s iters e)
    | Prog.Eadd (a, b) -> eval s iters a +. eval s iters b
    | Prog.Esub (a, b) -> eval s iters a -. eval s iters b
    | Prog.Emul (a, b) -> eval s iters a *. eval s iters b
    | Prog.Ediv (a, b) -> eval s iters a /. eval s iters b
    | Prog.Emin (a, b) -> Float.min (eval s iters a) (eval s iters b)
    | Prog.Emax (a, b) -> Float.max (eval s iters a) (eval s iters b)
  in
  List.iter (fun ((s : Prog.stmt), iters) ->
    (match s.Prog.body with
     | None -> ()
     | Some (lhs, rhs) ->
       let v = eval s iters rhs in
       let idx = index s lhs iters in
       c.Exec.g_st <- c.Exec.g_st +. 1.0;
       touch lhs idx `St;
       Memory.write_global memory lhs.Prog.array idx v);
    let flops =
      match s.Prog.body with
      | None -> 0
      | Some (_, rhs) -> 1 + Exec.expr_flops rhs
    in
    c.Exec.flops <- c.Exec.flops +. float_of_int flops)
    insts;
  Exec.record_run_metrics c (Exec.fresh_tally ()) ~occupancy:(fun () ->
    Memory.local_occupancy memory);
  c
