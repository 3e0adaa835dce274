open Emsc_arith
open Emsc_ir
open Emsc_core
open Emsc_codegen
open Emsc_machine
open Emsc_driver

(* first differing element of one array across two memories *)
let first_diff m_got m_ref name =
  let got = Memory.global_data m_got name
  and want = Memory.global_data m_ref name in
  if Array.length got <> Array.length want then
    Some (Printf.sprintf "%s: size %d vs %d" name (Array.length got)
            (Array.length want))
  else begin
    let n = Array.length got in
    let rec go i =
      if i >= n then None
      else if got.(i) <> want.(i) then
        Some
          (Printf.sprintf "%s[flat %d] = %.17g, reference %.17g" name i
             got.(i) want.(i))
      else go (i + 1)
    in
    go 0
  end

let compare_memories (p : Prog.t) m_got m_ref =
  let rec go = function
    | [] -> Ok ()
    | (d : Prog.array_decl) :: rest ->
      if Memory.arrays_equal ~eps:0.0 m_got m_ref d.Prog.array_name then
        go rest
      else
        Error
          (match first_diff m_got m_ref d.Prog.array_name with
           | Some msg -> msg
           | None -> d.Prog.array_name ^ ": contents differ")
  in
  go p.Prog.arrays

(* replay one statement instance with its iterators bound as (trivial)
   loop variables, so rewritten accesses — whose buffer indices are
   expressions over the iterator names — evaluate correctly *)
let instance_call ((s : Prog.stmt), iters) =
  let call =
    Ast.Stmt_call
      { stmt_id = s.Prog.id;
        iter_args = Array.map (fun nm -> Ast.Var nm) s.Prog.iter_names }
  in
  let rec wrap d body =
    if d < 0 then body
    else
      wrap (d - 1)
        [ Ast.Loop
            { Ast.var = s.Prog.iter_names.(d);
              lb = Ast.Const iters.(d);
              ub = Ast.Const iters.(d);
              step = Zint.one;
              par = Ast.Seq;
              body } ]
  in
  wrap (s.Prog.depth - 1) [ call ]

let staged_untiled ~param_env (plan : Plan.t) (prog : Prog.t) =
  let calls =
    List.concat_map instance_call (Reference.instances prog ~param_env)
  in
  let harness = Plan.all_move_in plan @ calls @ Plan.all_move_out plan in
  let locals =
    List.map (fun (b : Plan.buffered) -> b.Plan.buffer.Alloc.local_name)
      plan.Plan.buffered
  in
  let local_ref =
    if plan.Plan.buffered <> [] then Some (Plan.local_ref plan) else None
  in
  let m_got, _ =
    Runner.execute ~prog ?local_ref ~locals ~mode:Exec.Full
      ~memory:Runner.Pseudorandom ~param_env harness
  in
  m_got

let totals_str (r : Exec.result) =
  Emsc_obs.Json.to_string (Exec.counters_json r.Exec.totals)

(* tiled compilation under the requested backend; [`Par] additionally
   requires the reduced counter totals to be bit-identical to a
   sequential [Full] replay (the write-ownership tracker is armed, so a
   cross-block race fails the run rather than silently matching) *)
let run_tiled ~backend ~param_env (c : Pipeline.compiled) =
  match backend with
  | `Seq ->
    let m, _ =
      Runner.simulate ~mode:Exec.Full ~memory:Runner.Pseudorandom
        ~param_env c
    in
    Ok m
  | `Par _ as b ->
    let m_par, r_par =
      Runner.simulate ~memory:Runner.Pseudorandom ~param_env ~backend:b
        ~track_ownership:true c
    in
    let _m_seq, r_seq =
      Runner.simulate ~mode:Exec.Full ~memory:Runner.Pseudorandom
        ~param_env c
    in
    let jp = totals_str r_par and js = totals_str r_seq in
    if jp <> js then
      Error
        (Printf.sprintf "parallel totals diverge from sequential: %s vs %s"
           jp js)
    else Ok m_par

let check_compiled ?(backend = `Seq) ~param_env (c : Pipeline.compiled) =
  match c.Pipeline.plan with
  | None -> Error "pipeline produced no plan"
  | Some plan ->
    (try
       let m_got =
         match c.Pipeline.tiled with
         | Some _ -> run_tiled ~backend ~param_env c
         | None -> Ok (staged_untiled ~param_env plan c.Pipeline.prog)
       in
       match m_got with
       | Error _ as e -> e
       | Ok m_got ->
         let m_ref, _ =
           Runner.reference ~memory:Runner.Pseudorandom ~param_env
             c.Pipeline.prog
         in
         compare_memories c.Pipeline.prog m_got m_ref
     with
     | Failure m -> Error ("execution failed: " ^ m)
     | Invalid_argument m -> Error ("execution failed: " ^ m)
     | Not_found -> Error "execution failed: unbound variable"
     | Emsc_runtime.Runtime.Ownership_violation m ->
       Error ("ownership: " ^ m))
