open Emsc_arith
open Emsc_codegen
open Emsc_machine
module Prof = Emsc_obs.Prof
module J = Emsc_obs.Json

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

(* The body one block of launch [l] runs: inside the outermost chain
   of singleton Block loops. *)
let rec block_body (l : Ast.loop) =
  match l.Ast.body with
  | [ Ast.Loop ({ par = Ast.Block; _ } as l') ] -> block_body l'
  | body -> body

(* Mirror the sequential executor's launch shape: peel the outermost
   chain of singleton Block loops, evaluating each level's bounds under
   the accumulated bindings, and emit one task (the block's bindings)
   per grid point in sequential order.  Bindings are inner-first. *)
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
         | _ -> tasks := b :: !tasks);
        v := Zint.add !v l.Ast.step
      done
    end
  in
  go [] l;
  Array.of_list (List.rev !tasks)

(* ----------------------------------------------------------------- *)
(* Crews: [jobs] worker lanes and [jobs] DMA lanes, reused across runs *)

type crew = { workers : Lane.t array; dmas : Lane.t array }

let crews_m = Mutex.create ()
let free_crews : (int, crew list) Hashtbl.t = Hashtbl.create 4

(* A run holds its crew exclusively: two runs sharing a FIFO lane could
   deadlock, one run's worker job awaiting a DMA job queued behind the
   other run's.  Concurrent runs therefore build a crew each, and all
   of them return to the free list.  A lane spawns its domain on its
   first job, so a run that never double-buffers spawns no DMA
   domain. *)
let checkout jobs =
  let reused =
    Mutex.protect crews_m @@ fun () ->
    match Hashtbl.find_opt free_crews jobs with
    | Some (c :: rest) ->
      Hashtbl.replace free_crews jobs rest;
      Some c
    | _ -> None
  in
  match reused with
  | Some c -> c
  | None ->
    { workers = Array.init jobs (fun _ -> Lane.create ());
      dmas = Array.init jobs (fun _ -> Lane.create ()) }

let checkin jobs c =
  Mutex.protect crews_m @@ fun () ->
  let rest = Option.value ~default:[] (Hashtbl.find_opt free_crews jobs) in
  Hashtbl.replace free_crews jobs (c :: rest)

(* a lane job rooted at the span [name] ([runtime.worker] or
   [runtime.dma]), whose arg [key] names its track in the runtime
   timeline; a plain call with probes off *)
let lane_job name key i f () =
  if not (Prof.enabled ()) then f ()
  else Prof.probe name f ~args:(fun () -> [ (key, J.Int i) ])

(* run [f 0 .. f (jobs-1)], [f w] on worker lane [w], to completion;
   re-raise the first worker exception once every worker is done, and
   a failed submit (a domain that could not be spawned) once the jobs
   already queued are.  The [runtime.worker] span roots a worker's Prof
   stack, so what it records (blocks, arena waits, DMA lane spawns) is
   attributed. *)
let dispatch crew f =
  let queued = ref [] in
  match
    Array.iteri
      (fun w lane ->
        queued :=
          Lane.submit lane
            (lane_job "runtime.worker" "worker" w (fun () -> f w))
          :: !queued)
      crew.workers
  with
  | () -> Lane.await_all (List.rev !queued)
  | exception e ->
    (try Lane.await_all !queued with _ -> ());
    raise e

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
  param_env : string -> Zint.t;
  memory : Memory.t;
  apool : Arena.pool;
  crew : crew;  (* held exclusively for the run *)
  collect_dma : bool;
  user_hook : (string -> int -> [ `Ld | `St ] -> unit) option;
  hook_m : Mutex.t;
  totals : Exec.counters;
  run_dma : Exec.dma_tally;
  chan_stats : chan_stat array;
  mutable launch_seq : int;
  mutable launches : Exec.launch list;
  mutable blocks_run : int;
}

let sum_words moved = List.fold_left (fun a (_, w) -> a +. w) 0.0 moved

let block_hook rt tracker i =
  match (tracker, rt.user_hook) with
  | None, None -> None
  | _ ->
    Some
      (fun arr addr kind ->
        (match rt.user_hook with
         | Some f -> Mutex.protect rt.hook_m (fun () -> f arr addr kind)
         | None -> ());
        match tracker with
        | Some tr -> tracker_record tr i arr addr kind
        | None -> ())

(* the wait for pool capacity; ~0-length when the pool has room *)
let acquire_arena rt =
  Prof.wrap "arena-wait"
    (fun rt -> Arena.acquire rt.apool ~words:rt.cfg.block_words)
    rt

type launch_slots = {
  launch_id : int;  (* tags spans so the report can group by launch *)
  tasks : (string * Zint.t) list array;
  host_bindings : (string * Zint.t) list;  (* outer-first *)
  in_slots : Exec.block_outcome option array;
  core_slots : Exec.block_outcome option array;
  out_slots : Exec.block_outcome option array;
  chan_of : int array;
}

let task_bindings st i =
  (* run_block applies bindings in list order (later wins): host outer
     scope first, then the block chain, innermost last *)
  st.host_bindings @ List.rev st.tasks.(i)

let block_args st i () =
  [ ("launch", J.Int st.launch_id); ("block", J.Int i) ]

(* the timeline span a block phase runs under *)
type span = Block | Compute | Dma_in | Dma_out

let exec_phase rt st hook i ~memory phase =
  let bindings = task_bindings st i in
  Exec.run_block ~memory ?on_global:(hook i) ~collect_dma:rt.collect_dma
    ~bindings phase

(* phase [phase] of block [i] under its timeline span; a DMA span also
   counts the words the phase staged, once the transfer is done, on the
   span only ([runtime.dma.move_in_words]/[move_out_words] are the
   registry's names for them).  With probes off, a direct call that
   allocates nothing for the span. *)
let run_phase rt st hook i ~memory span phase =
  if not (Prof.enabled ()) then exec_phase rt st hook i ~memory phase
  else begin
    let name =
      match span with
      | Block -> "block"
      | Compute -> "compute"
      | Dma_in -> "dma-in"
      | Dma_out -> "dma-out"
    in
    Prof.probe name ~args:(block_args st i) @@ fun () ->
    let o = exec_phase rt st hook i ~memory phase in
    let dma = o.Exec.b_dma in
    (match span with
     | Dma_in -> Prof.span_add "words" (sum_words dma.Exec.moved_in)
     | Dma_out -> Prof.span_add "words" (sum_words dma.Exec.moved_out)
     | Block | Compute -> ());
    o
  end

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
let exec_chains rt st hook body chain_id w =
  let n = Array.length st.tasks in
  let jobs = rt.cfg.jobs in
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
        arena := Some (acquire_arena rt);
        prev_chain := c
      end;
      let memory = Arena.memory (Option.get !arena) in
      st.core_slots.(i) <- Some (run_phase rt st hook i ~memory Block body);
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
    ids.(i) <-
      (if same_tail tasks.(i - 1) tasks.(i) then ids.(i - 1)
       else ids.(i - 1) + 1)
  done;
  ids

(* double-buffered path: worker [w] runs blocks [w], [w + jobs], ...;
   its DMA lane carries the move phases, and block j+1's move-in is
   staged while block j computes.  The worker returns only once every
   job it queued has run, also when a phase raises, so a failed run
   leaves its lane idle for the next run and frees every arena it
   took. *)
let exec_pipelined rt st hook (ins, core, outs) w =
  let n = Array.length st.tasks in
  let jobs = rt.cfg.jobs in
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
  let lane = rt.crew.dmas.(w) in
  let queued = ref [] and taken = ref [] in
  let submit f =
    let t = Lane.submit lane (lane_job "runtime.dma" "channel" w f) in
    queued := t :: !queued;
    t
  in
  let take a =
    taken := a :: !taken;
    a
  in
  let stage i arena =
    let t =
      submit (fun () ->
        st.in_slots.(i) <-
          Some (run_phase rt st hook i ~memory:(Arena.memory arena) Dma_in ins))
    in
    (i, arena, t)
  in
  let rec go (i, arena, tin) =
    let next =
      match next_task () with
      | None -> None
      | Some j -> (
        (* opportunistic prefetch: skip when the pool is full now *)
        match Arena.try_acquire rt.apool ~words:rt.cfg.block_words with
        | Some a -> Some (`Staged (stage j (take a)))
        | None -> Some (`Plain j))
    in
    if not (Prof.enabled ()) then Lane.await tin
    else
      Prof.probe "dma-wait" ~args:(block_args st i) (fun () -> Lane.await tin);
    st.core_slots.(i) <-
      Some (run_phase rt st hook i ~memory:(Arena.memory arena) Compute core);
    st.chan_of.(i) <- w;
    ignore
      (submit (fun () ->
         Fun.protect ~finally:(fun () -> Arena.release arena) @@ fun () ->
         let memory = Arena.memory arena in
         st.out_slots.(i) <-
           Some (run_phase rt st hook i ~memory Dma_out outs)));
    match next with
    | Some (`Staged s) -> go s
    | Some (`Plain j) -> go (stage j (take (acquire_arena rt)))
    | None -> ()
  in
  match
    match next_task () with
    | None -> ()
    | Some i -> go (stage i (take (acquire_arena rt)))
  with
  | () -> Lane.await_all !queued
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Lane.await_all !queued with _ -> ());
    List.iter Arena.release !taken;
    Printexc.raise_with_backtrace e bt

(* A statement of the host program, its block code lowered once per
   run whatever the number of launches and blocks that run it. *)
type host =
  | Launch of Ast.loop * launch_code
  | Host_loop of Ast.loop * host list
  | Host_guard of Ast.aexpr list * host list
  | Leaf of Exec.code  (* no block loop inside: runs on the main domain *)

and launch_code =
  | Whole of Exec.code  (* one block body, run in its chain's arena *)
  | Phased of Exec.code * Exec.code * Exec.code
      (* move-in, compute, move-out: the double-buffered pipeline *)

let rec lower_host session cfg (s : Ast.stm) =
  match s with
  | Ast.Loop l when l.Ast.par = Ast.Block ->
    let body = block_body l in
    (* residency needs whole-chain arenas: the pipelined executor
       releases each block's arena after its move-out, which would wipe
       the resident slab between blocks of a chain *)
    let phases =
      if cfg.double_buffer && not cfg.inter_tile_reuse then
        pipeline_phases body
      else None
    in
    let lower = Exec.lower session in
    Launch
      ( l,
        match phases with
        | Some (ins, core, outs) -> Phased (lower ins, lower core, lower outs)
        | None -> Whole (lower body) )
  | Ast.Loop l when List.exists contains_block l.Ast.body ->
    Host_loop (l, List.map (lower_host session cfg) l.Ast.body)
  | Ast.Guard (conds, body) when List.exists contains_block body ->
    Host_guard (conds, List.map (lower_host session cfg) body)
  | s -> Leaf (Exec.lower session [ s ])

let exec_launch rt host_bindings (l : Ast.loop) code =
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
    Prof.probe "runtime.launch"
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
    Prof.probe "runtime.dispatch" (fun () ->
      dispatch rt.crew (fun w ->
        match code with
        | Phased (ins, core, outs) ->
          exec_pipelined rt st hook (ins, core, outs) w
        | Whole body -> exec_chains rt st hook body chain_id w));
    (match tracker with
     | Some { violation = Some msg; _ } -> raise (Ownership_violation msg)
     | _ -> ());
    (* barrier reduction, in block order: exact for the integer-valued
       counters, so totals are independent of jobs *)
    Prof.probe "runtime.reduce" @@ fun () ->
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
let exec_host_leaf rt host_bindings code =
  let bindings = List.rev host_bindings in
  let o =
    Exec.run_block ~memory:rt.memory ?on_global:rt.user_hook
      ~collect_dma:rt.collect_dma ~bindings code
  in
  Exec.add_into o.Exec.b_counters rt.totals;
  Exec.tally_add rt.run_dma o.Exec.b_dma

let rec exec_host rt host_bindings (h : host) =
  let lookup n =
    match List.assoc_opt n host_bindings with
    | Some v -> v
    | None -> rt.param_env n
  in
  match h with
  | Launch (l, code) -> exec_launch rt host_bindings l code
  | Host_loop (l, body) ->
    let lb = Ast.eval lookup l.Ast.lb and ub = Ast.eval lookup l.Ast.ub in
    if Zint.compare lb ub <= 0 then begin
      let trip =
        Zint.to_int_exn
          (Zint.add (Zint.fdiv (Zint.sub ub lb) l.Ast.step) Zint.one)
      in
      let v = ref lb in
      for _ = 1 to trip do
        List.iter (exec_host rt ((l.Ast.var, !v) :: host_bindings)) body;
        v := Zint.add !v l.Ast.step
      done
    end
  | Host_guard (conds, body) ->
    if
      List.for_all
        (fun c -> not (Zint.is_negative (Ast.eval lookup c)))
        conds
    then List.iter (exec_host rt host_bindings) body
  | Leaf code -> exec_host_leaf rt host_bindings code

let flush_metrics rt =
  (* per-block scratchpad peaks, observed at arena release: tighter
     than the sequential executor's cumulative union of windows *)
  Exec.record_run_metrics rt.totals rt.run_dma ~occupancy:(fun () ->
    Arena.peak_occupancy rt.apool);
  if Prof.enabled () then begin
    Prof.add "runtime.blocks" (float_of_int rt.blocks_run);
    Prof.add "runtime.launches" (float_of_int (List.length rt.launches));
    Prof.gauge_max "runtime.arena_peak_concurrent"
      (float_of_int (Arena.peak_in_use rt.apool));
    (* the DMA lanes' tallies, one label per channel; the [runtime.run]
       frame reads their sum *)
    Array.iteri
      (fun i cs ->
        if cs.transfers > 0.0 then begin
          let labels = [ ("channel", "ch" ^ string_of_int i) ] in
          Prof.add ~labels "runtime.dma.move_in_words" cs.in_words;
          Prof.add ~labels "runtime.dma.move_out_words" cs.out_words;
          Prof.add ~labels "runtime.dma.transfers" cs.transfers
        end)
      rt.chan_stats
  end

let run ~prog ?local_ref ~param_env ~memory ?on_global
    ?(cfg = default_cfg ~jobs:1) stms =
  let cfg = { cfg with jobs = max 1 cfg.jobs } in
  let host =
    List.map
      (lower_host (Exec.session ~prog ?local_ref ~param_env ()) cfg)
      stms
  in
  let apool =
    Arena.create_pool ?max_arenas:cfg.max_concurrent_blocks ~base:memory ()
  in
  let crew = checkout cfg.jobs in
  Fun.protect ~finally:(fun () -> checkin cfg.jobs crew) @@ fun () ->
  let rt =
    { cfg; param_env; memory; apool; crew;
      collect_dma = Prof.enabled ();
      user_hook = on_global;
      hook_m = Mutex.create (); totals = Exec.fresh ();
      run_dma = Exec.fresh_tally ();
      chan_stats =
        Array.init cfg.jobs (fun _ ->
          { in_words = 0.; out_words = 0.; transfers = 0. });
      launch_seq = 0; launches = []; blocks_run = 0 }
  in
  Prof.probe "runtime.run"
    ~args:(fun () -> [ ("jobs", J.Int cfg.jobs) ])
  @@ fun () ->
  List.iter (exec_host rt []) host;
  flush_metrics rt;
  { Exec.totals = rt.totals; launches = List.rev rt.launches }
