(* run-kernels: one caller in a closed loop executes compiled tiled
   kernels in full on the simulated machine, alternating the sequential
   interpreter and the two-domain runtime.  The solver, cache and
   daemon do no work in the timed phase. *)

open Emsc_driver
open Emsc_machine
open Common

type kernel = {
  k : Inputs.kernel;
  compiled : Pipeline.compiled;
  ref_arrays : (string * float array) list;  (** from [Runner.reference] *)
}

let arrays_of (c : Pipeline.compiled) mem =
  List.map
    (fun (a : Emsc_ir.Prog.array_decl) ->
      let n = a.Emsc_ir.Prog.array_name in
      (n, Array.copy (Memory.global_data mem n)))
    c.Pipeline.prog.Emsc_ir.Prog.arrays

let same_bits a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

let arrays_equal expected mem =
  List.for_all
    (fun (n, data) -> same_bits data (Memory.global_data mem n))
    expected

(* Set-up: compile the kernels and compute their reference outputs. *)
let setup ~seed ~compile () =
  Array.map
    (fun k ->
      match Spans.with_span "setup.compile" (fun () -> compile (Inputs.kernel_job k)) with
      | Error m -> failwith (Printf.sprintf "run-kernels: %s: %s" k.Inputs.name m)
      | Ok compiled ->
        Spans.with_span "setup.reference" (fun () ->
          let mem, _ =
            Runner.reference ~memory:(Inputs.memory ~seed compiled.Pipeline.prog)
              compiled.Pipeline.prog
          in
          { k; compiled; ref_arrays = arrays_of compiled mem }))
    Inputs.rotation_kernels

(* Parallel ops double-buffer, so the runtime's DMA channels carry the
   movement and overlap it with compute. *)
let simulate ~seed backend (c : Pipeline.compiled) =
  Runner.simulate ~mode:Exec.Full ~memory:(Inputs.memory ~seed c.Pipeline.prog) ~backend
    ~double_buffer:(backend <> `Seq) c

let totals_key (t : Exec.counters) =
  Exec.(t.flops, t.g_ld, t.g_st, t.s_ld, t.s_st, t.syncs, t.fences)

let backend_name = function `Seq -> "machine.seq" | `Par _ -> "runtime.par2"

let compile jb = Result.map_error Frontend.error_message (Pipeline.compile jb)

(* The kernel set compiled stage by stage, for the compile layers of a
   traced run; each result must equal the compilation that is run. *)
let staged_pass ks =
  Spans.reset ();
  Spans.on := true;
  Emsc_obs.Prof.reset ();
  Emsc_obs.Prof.enable ();
  let agree =
    Array.for_all
      (fun kr ->
        match Stages.compile (Inputs.kernel_job kr.k) with
        | Ok st -> Stages.agrees st kr.compiled
        | Error _ -> false)
      ks
  in
  let solver = Stages.solver_of_profile (Emsc_obs.Prof.snapshot ()) in
  Emsc_obs.Prof.disable ();
  Spans.on := false;
  (agree, Spans.all (), solver)

(* The process's resident set grows with the ops run (about 40 KB an
   op, though the OCaml heap's live data does not), so [peak_rss_mb] is
   read once this many ops have run (or when the timed phase ends, if
   sooner): the same work in every run, however fast the host is. *)
let rss_ops = 250

let run ~seed ~seconds ~traced =
  Spans.reset ();
  let ks, before_u, before_t =
    Spans.setups ~times:3 ~traced ~setup:(setup ~seed ~compile) ~discard:ignore
  in
  let rot = Inputs.rotation in
  let nrot = Array.length rot in
  (* A traced run alternates traced and untraced turns of the whole
     rotation in one timed phase, so host drift hits both kinds alike
     and each kind runs every pair equally often. *)
  let turns = if traced then 2 else 1 in
  let traced_op j = traced && (j / nrot) mod 2 = 1 in
  let ops = ref [] in
  let wall_u = ref 0.0 and wall_t = ref 0.0 in
  let par_reports = ref [] in
  (* the timed phase starts from a collected heap, so the set-ups'
     garbage is not collected during the first ops *)
  Gc.full_major ();
  let deadline = now () +. seconds in
  let j = ref 0 in
  let rss_at = ref None in
  while !j < turns * nrot || now () < deadline || !j mod nrot <> 0 do
    let ki, backend = rot.(!j mod nrot) in
    let kr = ks.(ki) in
    let tr = traced_op !j in
    Spans.set_op !j;
    Spans.on := tr;
    let (mem, res), dt =
      timed (fun () ->
        Spans.with_span (backend_name backend) (fun () ->
          match backend with
          | `Par _ when tr ->
            let r, report =
              Runner.with_runtime_report (fun () -> simulate ~seed backend kr.compiled)
            in
            Option.iter (fun rp -> par_reports := rp :: !par_reports) report;
            r
          | _ -> simulate ~seed backend kr.compiled))
    in
    Spans.on := false;
    if tr then wall_t := !wall_t +. dt else wall_u := !wall_u +. dt;
    (* the arrays are compared outside the op's interval *)
    ops := (ki, tr, totals_key res.Exec.totals, arrays_equal kr.ref_arrays mem, dt) :: !ops;
    incr j;
    if !j = rss_ops then rss_at := Some (peak_rss_mb ())
  done;
  let peak_rss_mb = match !rss_at with Some v -> v | None -> peak_rss_mb () in
  let trace_mb = Spans.retained_mb () in
  let _, after_u, after_t =
    Spans.setups ~times:2 ~traced ~setup:(setup ~seed ~compile) ~discard:ignore
  in
  let op_spans = List.filter (fun (s : Spans.span) -> s.Spans.op >= 0) (Spans.all ()) in
  let setup_spans = List.filter (fun (s : Spans.span) -> s.Spans.op < 0) (Spans.all ()) in
  (* verification: one sequential and one parallel run of each kernel
     must give identical counter totals, and each op must reproduce them *)
  let expected =
    Array.mapi
      (fun ki kr ->
        let (_, s), seq_s = timed (fun () -> simulate ~seed `Seq kr.compiled) in
        let (_, p), par_s = timed (fun () -> simulate ~seed (`Par 2) kr.compiled) in
        let agree = totals_key s.Exec.totals = totals_key p.Exec.totals in
        if not agree then
          prerr_endline (Printf.sprintf "run-kernels: kernel %d: seq/par totals differ" ki);
        (agree, totals_key s.Exec.totals, s.Exec.totals, seq_s, par_s))
      ks
  in
  let op_ms ~traced:want =
    List.filter_map
      (fun (ki, tr, key, arrays_ok, dt) ->
        let agree, k, _, _, _ = expected.(ki) in
        if tr = want && arrays_ok && agree && key = k then Some (dt *. 1000.0) else None)
      !ops
  in
  let moved =
    Array.fold_left (fun acc (_, _, t, _, _) -> acc +. Exec.total_global t) 0.0 expected
  in
  let code_size =
    Array.fold_left (fun n kr -> n + Stages.code_size kr.compiled) 0 ks
  in
  let side ~traced:tr setup_s wall_s peak_rss_mb =
    e2e ~setup_s ~op_ms:(op_ms ~traced:tr) ~wall_s ~peak_rss_mb ~code_size ~moved_words:moved
  in
  let e2e = side ~traced:false (median (before_u @ after_u)) !wall_u peak_rss_mb in
  let traced_e2e =
    if traced then
      side ~traced:true (median (before_t @ after_t)) !wall_t (peak_rss_mb +. trace_mb)
    else []
  in
  let staged = if traced then Some (staged_pass ks) else None in
  let layers =
    match staged with
    | None -> []
    | Some (_, compile_spans, solver) ->
      let tbl = Spans.self_ms_by_name op_spans in
      let count name =
        List.length (List.filter (fun (s : Spans.span) -> s.Spans.name = name) op_spans)
      in
      let per name =
        let c = count name in
        if c = 0 then 0.0 else Spans.self_ms tbl name /. float_of_int c
      in
      let seq_ms = per "machine.seq" and par_ms = per "runtime.par2" in
      (* accesses of the sequential ops, per op *)
      let seq_accesses =
        let total = ref 0.0 and n = ref 0 in
        Array.iter
          (fun (ki, b) ->
            if b = `Seq then begin
              let _, _, t, _, _ = expected.(ki) in
              total := !total +. Exec.(t.g_ld +. t.g_st +. t.s_ld +. t.s_st);
              incr n
            end)
          rot;
        if !n = 0 then 0.0 else !total /. float_of_int !n
      in
      (* runtime split summed over the parallel ops' reports *)
      let sum f = List.fold_left (fun a r -> a +. f r) 0.0 !par_reports in
      let module R = Emsc_obs.Runtime_report in
      let dsum f = sum (fun r -> List.fold_left (fun a d -> a +. f d) 0.0 r.R.domains) in
      let busy = dsum (fun d -> d.R.d_busy_s)
      and idle = dsum (fun d -> d.R.d_idle_s)
      and wait = dsum (fun d -> d.R.d_dma_wait_s) in
      let dom_total = busy +. idle +. wait in
      let frac x = if dom_total > 0.0 then x /. dom_total else 0.0 in
      let dma_busy = sum (fun r -> r.R.dma_busy_s) in
      let flops, dma_words =
        (* one sequential pass of the kernel set with the library's
           metrics registry on: exact flop and staged-word tallies *)
        Emsc_obs.Metrics.reset ();
        Emsc_obs.Metrics.enable ();
        Array.iter (fun kr -> ignore (simulate ~seed `Seq kr.compiled)) ks;
        let snap = Emsc_obs.Metrics.snapshot () in
        Emsc_obs.Metrics.disable ();
        let words =
          List.fold_left
            (fun a (s : Emsc_obs.Metrics.sample) ->
              if s.Emsc_obs.Metrics.m_name = "exec.move_in_words"
                 || s.Emsc_obs.Metrics.m_name = "exec.move_out_words"
              then
                match s.Emsc_obs.Metrics.m_value with
                | Emsc_obs.Metrics.Counter v -> a +. v
                | _ -> a
              else a)
            0.0 snap.Emsc_obs.Metrics.samples
        in
        (Emsc_obs.Metrics.counter_value snap "exec.flops", words)
      in
      Stages.compile_layers ~compiles:(Array.length ks) ~spans:compile_spans ~solver
        ~per_pass_buffers:
          (Array.fold_left (fun n kr -> n + Stages.buffers kr.compiled) 0 ks)
      @ [ metric "machine.seq_ms" "ms" seq_ms;
          metric "runtime.par2_ms" "ms" par_ms;
          metric "runtime.par2_over_seq" "ratio"
            (let sq = Array.fold_left (fun a (_, _, _, s, _) -> a +. s) 0.0 expected
             and pr = Array.fold_left (fun a (_, _, _, _, p) -> a +. p) 0.0 expected in
             if sq > 0.0 then pr /. sq else 0.0);
          metric "machine.ns_per_access" "ns"
            (if seq_accesses > 0.0 then seq_ms *. 1e6 /. seq_accesses else 0.0);
          metric "runtime.busy_frac" "ratio" (frac busy);
          metric "runtime.idle_frac" "ratio" (frac idle);
          metric "runtime.dma_wait_frac" "ratio" (frac wait);
          metric "runtime.overlap_frac" "ratio"
            (if dma_busy > 0.0 then sum (fun r -> r.R.overlap_s) /. dma_busy else 0.0);
          metric "machine.flops" "count" flops;
          metric "machine.dma_words" "words" dma_words ]
  in
  Option.iter
    (fun (_, compile_spans, _) ->
      Spans.write (Filename.concat (scratch_dir ()) "trace-run-kernels.json")
        (setup_spans @ op_spans @ compile_spans))
    staged;
  let verified = List.length (op_ms ~traced:false) + List.length (op_ms ~traced:true) in
  { attempted = !j;
    failed = !j - verified;
    checks_ok = (match staged with Some (agree, _, _) -> agree | None -> true);
    e2e;
    traced_e2e;
    layers;
    notes =
      [ Printf.sprintf "run-kernels: %d kernels, rotation of %d (kernel, backend) pairs, %d ops (%d traced)"
          (Array.length ks) nrot !j (List.length (List.filter (fun (_, tr, _, _, _) -> tr) !ops));
        tail_note ~n:(List.length (op_ms ~traced:false)) (op_ms ~traced:false) ] }
