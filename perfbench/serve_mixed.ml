(* serve-mixed: an in-process daemon behind an LRU-capped hot cache and
   a scratch disk layer.  One load-generator thread drives two
   closed-loop connections.  Most requests hit the hot set; one in
   [Inputs.cold_every] is a never-seen tiled matmul whose compile and
   stores push hot entries out to disk, so the cache is written as well
   as read. *)

open Emsc_driver
open Common
module P = Emsc_serve.Protocol
module J = Emsc_obs.Json

let default_machine = "gtx8800"

(* Hot entries: six kernels times three cached stages (deps, tile,
   plan).  Two spare slots, so each cold compile's three stores evict. *)
let cache_entries = 20

let options_of (k : Inputs.kernel) =
  let pos = List.map (function Some v -> v | None -> 0) in
  { P.default_options with
    P.o_arch = `Cell;
    o_block = pos (List.map fst k.Inputs.tiles);
    o_mem = pos (List.map snd k.Inputs.tiles) }

let request_line ~id (k : Inputs.kernel) =
  P.request_line
    { P.req_id = id;
      op = P.Compile { name = k.Inputs.name; text = k.Inputs.text; options = options_of k };
      timeout_ms = None }

(* --- one connection, read line by line ------------------------------------ *)

(* [Emsc_serve.Client] blocks on one connection at a time; the load
   generator waits on both sockets with [select], so it keeps its own
   descriptors and line buffers and speaks the same [Protocol] lines. *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go (tries - 1)
  in
  go 2000

let send c line =
  let s = Bytes.unsafe_of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

(* Complete lines already buffered. *)
let take_lines c =
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending s (last + 1) (String.length s - last - 1);
    String.split_on_char '\n' (String.sub s 0 last)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "serve-mixed: daemon closed the connection"
  | n -> Buffer.add_subbytes c.pending c.chunk 0 n

let rec recv_line c =
  match take_lines c with
  | [ l ] -> l
  | [] -> fill c; recv_line c
  | _ -> failwith "serve-mixed: more than one response outstanding"

(* --- the daemon ------------------------------------------------------------ *)

type daemon = {
  dir : string;
  sock : string;
  cache : Cache.t;
  server : Emsc_serve.Server.stats Domain.t;
  conns : conn array;
  prefilled : int;
}

let boots = ref 0

(* Set-up: boot the daemon, connect both clients, compile the hot set
   once through it. *)
let boot ~hot () =
  incr boots;
  let base = scratch_dir () in
  let dir = Filename.concat base (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !boots) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat base (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !boots) in
  let cache, server =
    Spans.with_span "setup.boot" (fun () ->
      let cache = Cache.create ~dir:(Filename.concat dir "cache") ~max_entries:cache_entries () in
      let cfg = Emsc_serve.Server.config ~cache ~default_machine (`Unix sock) in
      (cache, Domain.spawn (fun () -> Emsc_serve.Server.run cfg)))
  in
  let conns = Spans.with_span "setup.connect" (fun () -> [| connect sock; connect sock |]) in
  let prefilled = ref 0 in
  Spans.with_span "setup.prefill" (fun () ->
    Array.iteri
      (fun i k ->
        send conns.(0) (request_line ~id:(Printf.sprintf "h%d" i) k);
        match Emsc_serve.Client.parse_response (recv_line conns.(0)) with
        | Ok r when r.Emsc_serve.Client.ok -> incr prefilled
        | _ -> ())
      hot);
  { dir; sock; cache; server; conns; prefilled = !prefilled }

let shutdown d =
  send d.conns.(0) (P.request_line { P.req_id = "bye"; op = P.Shutdown; timeout_ms = None });
  ignore (recv_line d.conns.(0));
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  ignore (Domain.join d.server);
  remove_tree d.dir;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* --- responses ------------------------------------------------------------- *)

type record = {
  slot : int;
  traced : bool;
  cold : int option;  (** index of the cold text *)
  rt_ms : float;
  t_sent : float;
  ok : bool;
  digest : string;  (** of the exact [result] bytes *)
  misses : int;
  queue_ms : float;
  exec_ms : float;
}

let server_marker = ",\"server\":"

(* The [result] bytes of an ok response and its [server] object. *)
let split_response ~id raw =
  let prefix =
    Printf.sprintf "{\"v\":%s,\"id\":%s,\"ok\":true,\"result\":"
      (J.to_string (J.Str P.version)) (J.to_string (J.Str id))
  in
  let pl = String.length prefix and ml = String.length server_marker in
  if String.length raw < pl || String.sub raw 0 pl <> prefix then None
  else
    let rec find i =
      if i < pl then None
      else if String.sub raw i ml = server_marker then Some i
      else find (i - 1)
    in
    match find (String.length raw - ml) with
    | None -> None
    | Some i ->
      let result = String.sub raw pl (i - pl) in
      let server = String.sub raw (i + ml) (String.length raw - i - ml - 1) in
      Some (result, server)

let num j name =
  match J.member name j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> nan

let expected_digest (k : Inputs.kernel) =
  match
    Emsc_serve.Server.job_of_request ~default_machine ~name:k.Inputs.name
      ~text:k.Inputs.text (options_of k)
  with
  | Error _ -> None
  | Ok (jb, capacity_words) -> (
    match Pipeline.compile jb with
    | Ok c -> (
      match P.compile_result ~capacity_words c with
      | payload -> Some (Digest.string (J.to_string payload))
      | exception Failure _ -> None)
    | Error _ -> None)

(* [f] over [items] on two domains, results in order. *)
let par_map f items =
  let a = Array.of_list items in
  let n = Array.length a in
  let out = Array.make n None in
  let half = (n + 1) / 2 in
  let work lo hi () = for i = lo to hi - 1 do out.(i) <- Some (f a.(i)) done in
  let d = Domain.spawn (work half n) in
  work 0 half ();
  Domain.join d;
  Array.to_list (Array.map Option.get out)

let run ~seed ~seconds ~traced =
  let hot = Inputs.hot_set in
  Spans.reset ();
  let d, before_u, before_t = Spans.setups ~times:2 ~traced ~setup:(boot ~hot) ~discard:shutdown in
  let cold_of_slot = Inputs.serve_schedule ~seed ~hot:(Array.length hot) in
  let hot_lines = Array.mapi (fun i k -> request_line ~id:(Printf.sprintf "h%d" i) k) hot in
  let cold_texts = ref [] and ncold = ref 0 in
  let c0 = Cache.(hot_hits d.cache, disk_hits d.cache, misses d.cache, stores d.cache, evictions d.cache) in
  (* A traced run records a span for the requests of every other block
     of [Inputs.cold_every] slots (one cold request each), and the two
     kinds are measured in the same stretch of time. *)
  let traced_slot i = traced && i / Inputs.cold_every mod 2 = 1 in
  let records = ref [] in
  let slot = ref 0 in
  let outstanding = Array.make 2 (-1, None, 0.0) in
  let send_next ci =
    let i = !slot in
    incr slot;
    let cold, hot_ix = cold_of_slot i in
    let line, cold_ix =
      if cold then begin
        let k = Inputs.cold_kernel ~seed !ncold in
        cold_texts := k :: !cold_texts;
        incr ncold;
        (request_line ~id:(Printf.sprintf "c%d" (!ncold - 1)) k, Some (!ncold - 1))
      end
      else (hot_lines.(hot_ix), None)
    in
    outstanding.(ci) <- (i, cold_ix, now ());
    send d.conns.(ci) line
  in
  (* the timed phase starts from a collected heap, so the set-ups'
     garbage is not collected during the first ops *)
  Gc.full_major ();
  let t_start = now () in
  let deadline = t_start +. seconds in
  send_next 0;
  send_next 1;
  let live = Array.make 2 true in
  let t_end = ref t_start in
  let handle ci raw =
    let t = now () in
    t_end := t;
    let i, cold, t_sent = outstanding.(ci) in
    if t < deadline then send_next ci else live.(ci) <- false;
    let id = match cold with Some k -> Printf.sprintf "c%d" k | None -> Printf.sprintf "h%d" (snd (cold_of_slot i)) in
    let tr = traced_slot i in
    let failed = { slot = i; traced = tr; cold; rt_ms = 0.0; t_sent; ok = false; digest = "";
                   misses = 0; queue_ms = nan; exec_ms = nan } in
    let r =
      match split_response ~id raw with
      | Some (result, server) -> (
        match J.of_string server with
        | Ok sj ->
          { slot = i; traced = tr; cold; rt_ms = (t -. t_sent) *. 1000.0; t_sent; ok = true;
            digest = Digest.string result;
            misses = int_of_float (num sj "cache_misses");
            queue_ms = num sj "queue_ms"; exec_ms = num sj "exec_ms" }
        | Error _ -> failed)
      | None -> failed
    in
    if tr then ignore (Spans.add ~op:i ~parent:(-1) "serve.roundtrip" t_sent t);
    records := r :: !records
  in
  while live.(0) || live.(1) do
    let fds = List.filter_map (fun ci -> if live.(ci) then Some d.conns.(ci).fd else None) [ 0; 1 ] in
    let ready, _, _ =
      try Unix.select fds [] [] 1.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let ci = if fd = d.conns.(0).fd then 0 else 1 in
        fill d.conns.(ci);
        List.iter (handle ci) (take_lines d.conns.(ci)))
      ready
  done;
  let wall = !t_end -. t_start in
  let peak_rss_mb = peak_rss_mb () in
  let trace_mb = Spans.retained_mb () in
  let c1 = Cache.(hot_hits d.cache, disk_hits d.cache, misses d.cache, stores d.cache, evictions d.cache) in
  shutdown d;
  let again, after_u, after_t = Spans.setups ~times:1 ~traced ~setup:(boot ~hot) ~discard:ignore in
  shutdown again;
  let spans = Spans.all () in
  (* verification: every result byte-equal to a direct compile of the
     job the daemon builds for that request *)
  let hot_expected = par_map expected_digest (Array.to_list hot) in
  let colds = List.rev !cold_texts in
  let cold_expected = Array.of_list (par_map expected_digest colds) in
  let hot_expected = Array.of_list hot_expected in
  let verified r =
    r.ok
    &&
    let want =
      match r.cold with
      | Some k -> cold_expected.(k)
      | None -> hot_expected.(snd (cold_of_slot r.slot))
    in
    want = Some r.digest
  in
  let good = List.filter verified !records in
  (* code size and movement of the hot set, compiled once directly *)
  let hot_compiled =
    Array.to_list hot
    |> List.filter_map (fun k ->
         match Emsc_serve.Server.job_of_request ~default_machine ~name:k.Inputs.name
                 ~text:k.Inputs.text (options_of k) with
         | Ok (jb, _) -> Result.to_option (Pipeline.compile jb)
         | Error _ -> None)
  in
  let code_size = List.fold_left (fun n c -> n + Stages.code_size c) 0 hot_compiled in
  let moved_words =
    List.fold_left
      (fun acc c ->
        let _, r = Runner.simulate ~mode:Emsc_machine.Exec.Full ~memory:Runner.Pseudorandom c in
        acc +. Emsc_machine.Exec.total_global r.Emsc_machine.Exec.totals)
      0.0 hot_compiled
  in
  (* In a traced run the two kinds share the timed wall; each kind's
     throughput is then its verified requests over its requests' summed
     round trips spread over the two connections (Little's law). *)
  let side ~traced:tr setup_s peak_rss_mb =
    let mine = List.filter (fun r -> r.traced = tr) !records in
    let wall_s =
      if traced then List.fold_left (fun a r -> a +. r.rt_ms) 0.0 mine /. 2000.0 else wall
    in
    e2e ~setup_s
      ~op_ms:(List.filter_map (fun r -> if verified r then Some r.rt_ms else None) mine)
      ~wall_s ~peak_rss_mb ~code_size ~moved_words
  in
  let e2e = side ~traced:false (median (before_u @ after_u)) peak_rss_mb in
  let traced_e2e =
    if traced then side ~traced:true (median (before_t @ after_t)) (peak_rss_mb +. trace_mb)
    else []
  in
  let op_ms = List.filter_map (fun r -> if r.traced then None else Some r.rt_ms) good in
  let staged_ok = ref 0 in
  (* The compile layers are measured on the hot set and eight cold
     matmuls of the family the run serves, at the sizes seed 0 would
     use: the served cold sizes follow the seed, and the solver counts
     must not. *)
  let sample = Array.to_list hot @ List.init 8 (Inputs.cold_kernel ~seed:0) in
  let sample_size = List.length sample in
  let layers =
    if not traced then []
    else begin
      (* each staged compile must agree with [Pipeline.compile] *)
      Spans.reset ();
      Spans.on := true;
      Emsc_obs.Prof.reset ();
      Emsc_obs.Prof.enable ();
      staged_ok := 0;
      List.iteri
        (fun i k ->
          Spans.set_op (!slot + i);
          match
            Emsc_serve.Server.job_of_request ~default_machine ~name:k.Inputs.name
              ~text:k.Inputs.text (options_of k)
          with
          | Ok (jb, _) -> (
            match Stages.compile jb, Pipeline.compile jb with
            | Ok st, Ok c when Stages.agrees st c -> incr staged_ok
            | _ -> ())
          | Error _ -> ())
        sample;
      let solver = Stages.solver_of_profile (Emsc_obs.Prof.snapshot ()) in
      Emsc_obs.Prof.disable ();
      let compile_spans = Spans.all () in
      Spans.on := false;
      Spans.write (Filename.concat (scratch_dir ()) "trace-serve-mixed.json") (spans @ compile_spans);
      let hot_rs = List.filter (fun r -> r.misses = 0) good
      and cold_rs = List.filter (fun r -> r.misses > 0) good in
      let hh0, dh0, m0, s0, e0 = c0 and hh1, dh1, m1, s1, e1 = c1 in
      let lookups = float_of_int (hh1 - hh0 + dh1 - dh0 + m1 - m0) in
      let ratio x = if lookups > 0.0 then float_of_int x /. lookups else 0.0 in
      let _, qtail, _ = tail (List.map (fun r -> r.queue_ms) good) in
      Stages.compile_layers ~compiles:(List.length sample) ~spans:compile_spans ~solver
        ~per_pass_buffers:(List.fold_left (fun n c -> n + Stages.buffers c) 0 hot_compiled)
      @ [ metric "serve.hot_ms" "ms" (median (List.map (fun r -> r.rt_ms) hot_rs));
          metric "serve.cold_ms" "ms" (median (List.map (fun r -> r.rt_ms) cold_rs));
          metric "serve.queue_ms" "ms" (median (List.map (fun r -> r.queue_ms) good));
          metric "serve.queue_ms_tail" "ms" qtail;
          metric "serve.exec_ms" "ms" (median (List.map (fun r -> r.exec_ms) good));
          metric "serve.wire_ms" "ms"
            (median (List.map (fun r -> r.rt_ms -. r.queue_ms -. r.exec_ms) good));
          metric "driver.cache.hot_hit_ratio" "ratio" (ratio (hh1 - hh0));
          metric "driver.cache.disk_hit_ratio" "ratio" (ratio (dh1 - dh0));
          metric "driver.cache.miss_ratio" "ratio" (ratio (m1 - m0));
          metric "driver.cache.lookups" "count" lookups;
          metric "driver.cache.stores" "count" (float_of_int (s1 - s0));
          metric "driver.cache.evictions" "count" (float_of_int (e1 - e0)) ]
    end
  in
  let n = List.length !records in
  { attempted = n;
    failed = n - List.length good;
    checks_ok = (not traced) || !staged_ok = sample_size;
    e2e;
    traced_e2e;
    layers;
    notes =
      [ Printf.sprintf
          "serve-mixed: %d requests over 2 connections, %d cold (1 in %d), %d hot texts prefilled"
          n !ncold Inputs.cold_every d.prefilled;
        tail_note ~n:(List.length op_ms) op_ms ] }
