open Emsc_arith
open Emsc_codegen
open Emsc_machine
module Ev = Emsc_obs.Events

type cfg = {
  jobs : int;
  double_buffer : bool;
  track_ownership : bool;
  max_concurrent_blocks : int option;
  block_words : int;
  inter_tile_reuse : bool;
}

let default_cfg ~jobs =
  { jobs = max 1 jobs; double_buffer = false; track_ownership = false;
    max_concurrent_blocks = None; block_words = 0;
    inter_tile_reuse = false }

exception Ownership_violation of string

(* ----------------------------------------------------------------- *)
(* Phase splitting                                                    *)

let rec is_movement (s : Ast.stm) =
  match s with
  | Ast.Copy _ | Ast.Comment _ -> true
  | Ast.Guard (_, body) -> List.for_all is_movement body
  | Ast.Loop l -> List.for_all is_movement l.Ast.body
  | Ast.Sync | Ast.Fence | Ast.Stmt_call _ -> false

let rec has_copy (s : Ast.stm) =
  match s with
  | Ast.Copy _ -> true
  | Ast.Guard (_, body) -> List.exists has_copy body
  | Ast.Loop l -> List.exists has_copy l.Ast.body
  | Ast.Sync | Ast.Fence | Ast.Stmt_call _ | Ast.Comment _ -> false

(* The tiler brackets hoisted movement with fences:
   [ins @ (Fence :: core) @ (Fence :: outs)].  Recover the three
   phases from the outermost fences; each fence travels with its
   movement phase so phase counter sums equal the unsplit body's. *)
let pipeline_phases (body : Ast.stm list) =
  let arr = Array.of_list body in
  let n = Array.length arr in
  let fences =
    List.filter (fun i -> arr.(i) = Ast.Fence) (List.init n Fun.id)
  in
  match fences with
  | [] -> None
  | first :: _ ->
    let last = List.fold_left max first fences in
    let sub lo hi = Array.to_list (Array.sub arr lo (max 0 (hi - lo))) in
    let pre = sub 0 first in
    let post = sub (last + 1) n in
    let pre_ok =
      pre <> [] && List.for_all is_movement pre && List.exists has_copy pre
    in
    let post_ok =
      post <> [] && List.for_all is_movement post && List.exists has_copy post
    in
    if pre_ok && post_ok && first < last then
      Some (pre @ [ Ast.Fence ], sub (first + 1) last, Ast.Fence :: post)
    else if pre_ok then Some (pre @ [ Ast.Fence ], sub (first + 1) n, [])
    else if post_ok && first = last then
      Some ([], sub 0 last, Ast.Fence :: post)
    else None

(* ----------------------------------------------------------------- *)
(* Launch discovery and task enumeration                              *)

let rec contains_block (s : Ast.stm) =
  match s with
  | Ast.Loop l -> l.Ast.par = Ast.Block || List.exists contains_block l.Ast.body
  | Ast.Guard (_, body) -> List.exists contains_block body
  | Ast.Copy _ | Ast.Sync | Ast.Fence | Ast.Stmt_call _ | Ast.Comment _ ->
    false

(* Mirror [Exec.grid_size]'s launch shape: peel the outermost chain of
   singleton Block loops, evaluating each level's bounds under the
   accumulated bindings, and emit one task per grid point in
   sequential order.  Bindings are inner-first. *)
let enumerate_tasks lookup (l : Ast.loop) =
  let tasks = ref [] in
  let rec go bindings (l : Ast.loop) =
    let look n =
      match List.assoc_opt n bindings with Some v -> v | None -> lookup n
    in
    let lb = Ast.eval look l.Ast.lb and ub = Ast.eval look l.Ast.ub in
    if Zint.compare lb ub <= 0 then begin
      let trip =
        Zint.to_int_exn
          (Zint.add (Zint.fdiv (Zint.sub ub lb) l.Ast.step) Zint.one)
      in
      let v = ref lb in
      for _ = 1 to trip do
        let b = (l.Ast.var, !v) :: bindings in
        (match l.Ast.body with
         | [ Ast.Loop ({ par = Ast.Block; _ } as l') ] -> go b l'
         | body -> tasks := (b, body) :: !tasks);
        v := Zint.add !v l.Ast.step
      done
    end
  in
  go [] l;
  Array.of_list (List.rev !tasks)

(* ----------------------------------------------------------------- *)
(* Worker pool: [jobs] domains, one dispatched closure per launch     *)

module Pool = struct
  type t = {
    jobs : int;
    m : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable epoch : int;
    mutable work : (int -> unit) option;
    mutable remaining : int;
    mutable stop : bool;
    mutable error : exn option;
    mutable domains : unit Domain.t array;
  }

  let worker p w () =
    let rec loop my_epoch =
      Mutex.lock p.m;
      while (not p.stop) && p.epoch = my_epoch do
        Condition.wait p.work_cv p.m
      done;
      if p.stop then Mutex.unlock p.m
      else begin
        let e = p.epoch in
        let f = Option.get p.work in
        Mutex.unlock p.m;
        (try f w
         with exn ->
           Mutex.lock p.m;
           if p.error = None then p.error <- Some exn;
           Mutex.unlock p.m);
        Mutex.lock p.m;
        p.remaining <- p.remaining - 1;
        if p.remaining = 0 then Condition.broadcast p.done_cv;
        Mutex.unlock p.m;
        loop e
      end
    in
    loop 0

  let create jobs =
    let p =
      { jobs; m = Mutex.create (); work_cv = Condition.create ();
        done_cv = Condition.create (); epoch = 0; work = None;
        remaining = 0; stop = false; error = None; domains = [||] }
    in
    p.domains <- Array.init jobs (fun w -> Domain.spawn (worker p w));
    p

  (* run [f 0 .. f (jobs-1)] to completion; re-raise the first worker
     exception *)
  let dispatch p f =
    Mutex.lock p.m;
    p.work <- Some f;
    p.remaining <- p.jobs;
    p.error <- None;
    p.epoch <- p.epoch + 1;
    Condition.broadcast p.work_cv;
    while p.remaining > 0 do
      Condition.wait p.done_cv p.m
    done;
    let err = p.error in
    Mutex.unlock p.m;
    match err with Some e -> raise e | None -> ()

  let shutdown p =
    Mutex.lock p.m;
    p.stop <- true;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
end

(* ----------------------------------------------------------------- *)
(* Debug write-ownership tracking                                     *)

type tracker = {
  tr_m : Mutex.t;
  writers : (int, int) Hashtbl.t;  (* global word address -> block *)
  mutable violation : string option;
}

let fresh_tracker () =
  { tr_m = Mutex.create (); writers = Hashtbl.create 1024; violation = None }

let tracker_record tr block arr addr kind =
  Mutex.lock tr.tr_m;
  (match kind with
   | `St -> (
     match Hashtbl.find_opt tr.writers addr with
     | Some other when other <> block ->
       if tr.violation = None then
         tr.violation <-
           Some
             (Printf.sprintf
                "blocks %d and %d of one launch both write %s (word %d)"
                other block arr addr)
     | _ -> Hashtbl.replace tr.writers addr block)
   | `Ld -> (
     match Hashtbl.find_opt tr.writers addr with
     | Some other when other <> block ->
       if tr.violation = None then
         tr.violation <-
           Some
             (Printf.sprintf
                "block %d reads %s (word %d) written by block %d in the same \
                 launch"
                block arr addr other)
     | _ -> ()));
  Mutex.unlock tr.tr_m

(* per-channel transfer statistics; each worker owns its own slot, the
   launch barrier publishes them to the main domain *)
type chan_stat = {
  mutable in_words : float;
  mutable out_words : float;
  mutable transfers : float;
}

(* ----------------------------------------------------------------- *)
(* The backend                                                        *)

type rt = {
  cfg : cfg;
  session : Exec.session;
  param_env : string -> Zint.t;
  memory : Memory.t;
  apool : Arena.pool;
  wpool : Pool.t;
  channels : Dma.channel array;  (* empty unless double_buffer *)
  collect_dma : bool;
  user_hook : (string -> int -> [ `Ld | `St ] -> unit) option;
  hook_m : Mutex.t;
  totals : Exec.counters;
  run_dma : Exec.dma_tally;
  chan_stats : chan_stat array;
  ev : Ev.ring array option;
      (* per-worker exec rings; [None] when events are disabled, so
         the hot path tests one option and allocates nothing *)
  mutable launch_seq : int;
  mutable launches : Exec.launch list;
  mutable blocks_run : int;
}

let ev_ring rt w = match rt.ev with Some a -> Some a.(w) | None -> None

let sum_words moved = List.fold_left (fun a (_, w) -> a +. w) 0.0 moved

let block_hook rt tracker i =
  match (tracker, rt.user_hook) with
  | None, None -> None
  | _ ->
    Some
      (fun arr addr kind ->
        (match rt.user_hook with
         | Some f ->
           Mutex.lock rt.hook_m;
           f arr addr kind;
           Mutex.unlock rt.hook_m
         | None -> ());
        match tracker with
        | Some tr -> tracker_record tr i arr addr kind
        | None -> ())

let acquire_arena ?er rt =
  match er with
  | Some r when Ev.enabled () ->
    (* records the wait for pool capacity; ~0-length when the pool has
       room immediately *)
    let t0 = Ev.now () in
    let a = Arena.acquire rt.apool ~words:rt.cfg.block_words in
    Ev.emit r ~t0 Ev.Arena_wait;
    a
  | _ -> Arena.acquire rt.apool ~words:rt.cfg.block_words

type launch_slots = {
  launch_id : int;  (* tags events so the report can group by launch *)
  tasks : ((string * Zint.t) list * Ast.stm list) array;
  host_bindings : (string * Zint.t) list;  (* outer-first *)
  in_slots : Exec.block_outcome option array;
  core_slots : Exec.block_outcome option array;
  out_slots : Exec.block_outcome option array;
  chan_of : int array;
}

let task_bindings st i =
  let task_b, _ = st.tasks.(i) in
  (* run_block applies bindings in list order (later wins): host outer
     scope first, then the block chain, innermost last *)
  st.host_bindings @ List.rev task_b

let run_phase rt st hook i ~memory phase =
  let bindings = task_bindings st i in
  Exec.run_block rt.session ~memory ?on_global:(hook i)
    ~collect_dma:rt.collect_dma ~bindings phase

(* The one schedule: tasks are partitioned into chains, and chain [c]
   runs on worker [c mod jobs] in ONE arena.  A chain is a single block
   unless the plan carries inter-tile delta guards; then it is a run of
   consecutive blocks differing only in the innermost block origin, so
   local buffers — and in particular the resident slabs the delta
   guards rely on — survive from block to block.  The arena is
   released (locals cleared) only at chain boundaries; a fresh chain
   therefore always starts from a clean scratchpad and its first
   block's full move-in.  The barrier reduction keeps counter totals
   bit-identical regardless of worker count. *)
let exec_chains rt st hook chain_id w =
  let n = Array.length st.tasks in
  let jobs = rt.wpool.Pool.jobs in
  let er = ev_ring rt w in
  let arena = ref None in
  let release_current () =
    match !arena with
    | Some a ->
      arena := None;
      Arena.release a
    | None -> ()
  in
  Fun.protect ~finally:release_current @@ fun () ->
  let prev_chain = ref (-1) in
  for i = 0 to n - 1 do
    let c = chain_id.(i) in
    if c mod jobs = w then begin
      if c <> !prev_chain then begin
        release_current ();
        arena := Some (acquire_arena ?er rt);
        prev_chain := c
      end;
      let memory = Arena.memory (Option.get !arena) in
      let _, body = st.tasks.(i) in
      (match er with
       | Some r when Ev.enabled () ->
         let t0 = Ev.now () in
         st.core_slots.(i) <- Some (run_phase rt st hook i ~memory body);
         Ev.emit r ~t0
           (Ev.Block { launch = st.launch_id; block = i; phase = Ev.Whole })
       | _ -> st.core_slots.(i) <- Some (run_phase rt st hook i ~memory body));
      st.chan_of.(i) <- w
    end
  done

(* Chains are contiguous in sequential task order because
   [enumerate_tasks] walks the block-loop chain in lexicographic
   order; task bindings are inner-first, so two consecutive tasks
   belong to one chain exactly when their binding TAILS (everything
   but the innermost origin) agree. *)
let chain_ids tasks =
  let n = Array.length tasks in
  let ids = Array.make n 0 in
  let same_tail a b =
    match (a, b) with
    | _ :: ta, _ :: tb ->
      (try
         List.for_all2
           (fun (na, va) (nb, vb) ->
             String.equal na nb && Zint.compare va vb = 0)
           ta tb
       with Invalid_argument _ -> false)
    | _ -> false
  in
  for i = 1 to n - 1 do
    let ba, _ = tasks.(i - 1) and bb, _ = tasks.(i) in
    ids.(i) <- (if same_tail ba bb then ids.(i - 1) else ids.(i - 1) + 1)
  done;
  ids

(* double-buffered path: worker [w] runs blocks [w], [w + jobs], ...;
   its DMA channel carries the move phases, and block j+1's move-in is
   staged while block j computes *)
let exec_pipelined rt st hook (ins, core, outs) w =
  let n = Array.length st.tasks in
  let jobs = rt.wpool.Pool.jobs in
  let next_task =
    let k = ref w in
    fun () ->
      if !k < n then begin
        let i = !k in
        k := i + jobs;
        Some i
      end
      else None
  in
  let chan = rt.channels.(w) in
  let er = ev_ring rt w in
  let events_on = rt.ev <> None in
  let stage i arena =
    let run () =
      st.in_slots.(i) <-
        Some (run_phase rt st hook i ~memory:(Arena.memory arena) ins)
    in
    let t =
      if events_on then
        Dma.submit chan run ~event:(fun () ->
          let words =
            match st.in_slots.(i) with
            | Some o -> sum_words o.Exec.b_dma.Exec.moved_in
            | None -> 0.0
          in
          Ev.Dma_transfer
            { launch = st.launch_id; block = i; dir = `In; words })
      else Dma.submit chan run
    in
    (i, arena, t)
  in
  let out_tickets = ref [] in
  let rec go (i, arena, tin) =
    let next =
      match next_task () with
      | None -> None
      | Some j -> (
        (* opportunistic prefetch: skip when the pool is full now *)
        match Arena.try_acquire rt.apool ~words:rt.cfg.block_words with
        | Some a -> Some (`Staged (stage j a))
        | None -> Some (`Plain j))
    in
    (match er with
     | Some r when Ev.enabled () ->
       let t0 = Ev.now () in
       Dma.await tin;
       Ev.emit r ~t0 (Ev.Dma_wait { launch = st.launch_id; block = i })
     | _ -> Dma.await tin);
    (match er with
     | Some r when Ev.enabled () ->
       let t0 = Ev.now () in
       st.core_slots.(i) <-
         Some (run_phase rt st hook i ~memory:(Arena.memory arena) core);
       Ev.emit r ~t0
         (Ev.Block { launch = st.launch_id; block = i; phase = Ev.Compute })
     | _ ->
       st.core_slots.(i) <-
         Some (run_phase rt st hook i ~memory:(Arena.memory arena) core));
    st.chan_of.(i) <- w;
    let run_out () =
      Fun.protect ~finally:(fun () -> Arena.release arena) @@ fun () ->
      st.out_slots.(i) <-
        Some (run_phase rt st hook i ~memory:(Arena.memory arena) outs)
    in
    let tout =
      if events_on then
        Dma.submit chan run_out ~event:(fun () ->
          let words =
            match st.out_slots.(i) with
            | Some o -> sum_words o.Exec.b_dma.Exec.moved_out
            | None -> 0.0
          in
          Ev.Dma_transfer
            { launch = st.launch_id; block = i; dir = `Out; words })
      else Dma.submit chan run_out
    in
    out_tickets := tout :: !out_tickets;
    match next with
    | Some (`Staged s) -> go s
    | Some (`Plain j) -> go (stage j (acquire_arena ?er rt))
    | None -> ()
  in
  (match next_task () with
   | None -> ()
   | Some i -> go (stage i (acquire_arena ?er rt)));
  List.iter Dma.await !out_tickets

let exec_launch rt host_bindings (l : Ast.loop) =
  (* host bindings are inner-first while walking (innermost shadows);
     launch state wants them outer-first for [run_block] *)
  let lookup n =
    match List.assoc_opt n host_bindings with
    | Some v -> v
    | None -> rt.param_env n
  in
  let tasks = enumerate_tasks lookup l in
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let module J = Emsc_obs.Json in
    Emsc_obs.Prof.probe "runtime.launch"
      ~args:(fun () ->
        [ ("grid", J.Float (float_of_int n));
          ("jobs", J.Int rt.cfg.jobs);
          ("chained", J.Bool rt.cfg.inter_tile_reuse) ])
    @@ fun () ->
    let chain_id =
      if rt.cfg.inter_tile_reuse then chain_ids tasks else Array.init n Fun.id
    in
    let launch_id = rt.launch_seq in
    rt.launch_seq <- launch_id + 1;
    let st =
      { launch_id; tasks; host_bindings = List.rev host_bindings;
        in_slots = Array.make n None; core_slots = Array.make n None;
        out_slots = Array.make n None; chan_of = Array.make n 0 }
    in
    let tracker = if rt.cfg.track_ownership then Some (fresh_tracker ()) else None in
    let hook = block_hook rt tracker in
    let _, body0 = tasks.(0) in
    (* residency needs whole-chain arenas: the pipelined executor
       releases each block's arena after its move-out, which would wipe
       the resident slab between blocks of a chain *)
    let phases =
      if
        rt.cfg.double_buffer && (not rt.cfg.inter_tile_reuse)
        && Array.length rt.channels > 0
      then pipeline_phases body0
      else None
    in
    Pool.dispatch rt.wpool (fun w ->
      match phases with
      | Some p -> exec_pipelined rt st hook p w
      | None -> exec_chains rt st hook chain_id w);
    (match tracker with
     | Some { violation = Some msg; _ } -> raise (Ownership_violation msg)
     | _ -> ());
    (* barrier reduction, in block order: exact for the integer-valued
       counters, so totals are independent of jobs *)
    let delta = Exec.fresh () in
    for i = 0 to n - 1 do
      let cs = rt.chan_stats.(st.chan_of.(i)) in
      let copies = ref 0.0 in
      List.iter
        (function
          | None -> ()
          | Some (o : Exec.block_outcome) ->
            let dma = o.Exec.b_dma in
            Exec.add_into o.Exec.b_counters delta;
            Exec.tally_add rt.run_dma dma;
            cs.in_words <- cs.in_words +. sum_words dma.Exec.moved_in;
            cs.out_words <- cs.out_words +. sum_words dma.Exec.moved_out;
            copies := !copies +. dma.Exec.copies)
        [ st.in_slots.(i); st.core_slots.(i); st.out_slots.(i) ];
      if !copies > 0.0 then cs.transfers <- cs.transfers +. 1.0
    done;
    Exec.add_into delta rt.totals;
    rt.blocks_run <- rt.blocks_run + n;
    Exec.prof_launch delta;
    let grid = float_of_int n in
    rt.launches <-
      { Exec.grid; per_block = Exec.scale_counters delta (1.0 /. grid);
        repeat = 1.0 }
      :: rt.launches
  end

(* host-level statement: no block loop inside, runs on this domain *)
let exec_host_leaf rt host_bindings (s : Ast.stm) =
  let bindings = List.rev host_bindings in
  let o =
    Exec.run_block rt.session ~memory:rt.memory
      ?on_global:rt.user_hook ~collect_dma:rt.collect_dma ~bindings [ s ]
  in
  Exec.add_into o.Exec.b_counters rt.totals;
  Exec.tally_add rt.run_dma o.Exec.b_dma

let rec exec_host rt host_bindings (s : Ast.stm) =
  match s with
  | Ast.Loop l when l.Ast.par = Ast.Block -> exec_launch rt host_bindings l
  | Ast.Loop l when List.exists contains_block l.Ast.body ->
    let lookup n =
      match List.assoc_opt n host_bindings with
      | Some v -> v
      | None -> rt.param_env n
    in
    let lb = Ast.eval lookup l.Ast.lb and ub = Ast.eval lookup l.Ast.ub in
    if Zint.compare lb ub <= 0 then begin
      let trip =
        Zint.to_int_exn
          (Zint.add (Zint.fdiv (Zint.sub ub lb) l.Ast.step) Zint.one)
      in
      let v = ref lb in
      for _ = 1 to trip do
        List.iter
          (exec_host rt ((l.Ast.var, !v) :: host_bindings))
          l.Ast.body;
        v := Zint.add !v l.Ast.step
      done
    end
  | Ast.Guard (conds, body) when List.exists contains_block body ->
    let lookup n =
      match List.assoc_opt n host_bindings with
      | Some v -> v
      | None -> rt.param_env n
    in
    if
      List.for_all
        (fun c -> not (Zint.is_negative (Ast.eval lookup c)))
        conds
    then List.iter (exec_host rt host_bindings) body
  | s -> exec_host_leaf rt host_bindings s

let flush_metrics rt =
  (* per-block scratchpad peaks, observed at arena release: tighter
     than the sequential executor's cumulative union of windows *)
  Exec.record_run_metrics rt.totals rt.run_dma ~occupancy:(fun () ->
    Arena.peak_occupancy rt.apool);
  if Emsc_obs.Metrics.enabled () then begin
    let open Emsc_obs in
    Metrics.counter "runtime.blocks" (float_of_int rt.blocks_run);
    Metrics.counter "runtime.launches"
      (float_of_int (List.length rt.launches));
    Metrics.gauge_max "runtime.arena_peak_concurrent"
      (float_of_int (Arena.peak_in_use rt.apool));
    Array.iteri
      (fun i cs ->
        if cs.transfers > 0.0 then begin
          let labels = [ ("channel", "ch" ^ string_of_int i) ] in
          Metrics.counter ~labels "runtime.dma.move_in_words" cs.in_words;
          Metrics.counter ~labels "runtime.dma.move_out_words" cs.out_words;
          Metrics.counter ~labels "runtime.dma.transfers" cs.transfers
        end)
      rt.chan_stats
  end

let run ~prog ?local_ref ~param_env ~memory ?on_global
    ?(cfg = default_cfg ~jobs:1) stms =
  let cfg = { cfg with jobs = max 1 cfg.jobs } in
  let session = Exec.session ~prog ?local_ref ~param_env () in
  let apool =
    Arena.create_pool ?max_arenas:cfg.max_concurrent_blocks ~base:memory ()
  in
  let wpool = Pool.create cfg.jobs in
  let channels =
    if cfg.double_buffer then
      Array.init cfg.jobs (fun i -> Dma.create ~id:i)
    else [||]
  in
  let ev =
    if Ev.enabled () then begin
      (* one exec track per worker, one DMA lane per channel, one
         arena-occupancy track; registered up front so the hot path
         only indexes arrays *)
      Array.iter
        (fun ch ->
          Dma.set_event_ring ch
            (Ev.ring ~kind:Ev.Dma_track
               ("dma" ^ string_of_int (Dma.id ch))))
        channels;
      Arena.set_event_ring apool (Ev.ring ~kind:Ev.Arena_track "arena");
      Some
        (Array.init cfg.jobs (fun i ->
           Ev.ring ~kind:Ev.Exec_track ("worker" ^ string_of_int i)))
    end
    else None
  in
  let rt =
    { cfg; session; param_env; memory; apool; wpool; channels;
      collect_dma = Emsc_obs.Metrics.enabled () || Ev.enabled ();
      user_hook = on_global;
      hook_m = Mutex.create (); totals = Exec.fresh ();
      run_dma = Exec.fresh_tally ();
      chan_stats =
        Array.init cfg.jobs (fun _ ->
          { in_words = 0.; out_words = 0.; transfers = 0. });
      ev; launch_seq = 0; launches = []; blocks_run = 0 }
  in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown wpool;
      Array.iter Dma.shutdown channels)
  @@ fun () ->
  Emsc_obs.Prof.probe "runtime.run"
    ~args:(fun () -> [ ("jobs", Emsc_obs.Json.Int cfg.jobs) ])
  @@ fun () ->
  List.iter (exec_host rt []) stms;
  flush_metrics rt;
  { Exec.totals = rt.totals; launches = List.rev rt.launches }
