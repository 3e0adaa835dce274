module P = Protocol
module J = Emsc_obs.Json
module Prof = Emsc_obs.Prof
module Pipeline = Emsc_driver.Pipeline
module Cache = Emsc_driver.Cache
module Source = Emsc_driver.Source
module Frontend = Emsc_driver.Frontend
module Options = Emsc_driver.Options
module Hierarchy = Emsc_machine.Hierarchy

type addr = [ `Unix of string | `Tcp of string * int ]

type config = {
  addr : addr;
  workers : int;
  queue_capacity : int;
  default_timeout_ms : float;
  max_line_bytes : int;
  cache : Cache.t;
  default_machine : string;
  install_signal_handlers : bool;
  log : string -> unit;
}

let default_workers () =
  let d = try Domain.recommended_domain_count () with _ -> 2 in
  max 1 (min 4 (d - 1))

let config ?workers ?(queue_capacity = 64) ?(default_timeout_ms = 0.0)
    ?(max_line_bytes = P.default_max_line_bytes) ?(cache = Cache.off)
    ?(default_machine = "gtx8800") ?(install_signal_handlers = false)
    ?(log = fun _ -> ()) addr =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  { addr; workers; queue_capacity; default_timeout_ms; max_line_bytes;
    cache; default_machine; install_signal_handlers; log }

type stats = {
  served : int;       (** requests answered [ok:true] *)
  rejected : int;     (** requests answered with a typed error *)
  connections : int;  (** connections accepted over the lifetime *)
}

(* --- request -> pipeline job --------------------------------------------- *)

(* Both the daemon and the bit-identity tests construct compilations
   through this one function, so "the daemon's result equals a direct
   Pipeline.compile" is a comparison of two compiles of the very same
   job. *)
let job_of_request ~default_machine ~name ~text (o : P.options_req) =
  let machine = if o.P.o_machine = "" then default_machine else o.P.o_machine in
  match Hierarchy.load machine with
  | Error m -> Error (P.reject "bad_request" (Printf.sprintf "machine: %s" m))
  | Ok hier ->
    let capacity_words = Hierarchy.staging_capacity_words hier in
    let base =
      { Options.default with
        arch = o.P.o_arch;
        merge_per_array = o.P.o_merge_per_array;
        delta = o.P.o_delta;
        optimize_movement = o.P.o_optimize_movement;
        inter_tile_reuse = o.P.o_inter_tile_reuse;
        machine = Hierarchy.digest hier }
    in
    if o.P.o_block = [] && o.P.o_mem = [] && o.P.o_thread = [] then
      Ok (Pipeline.job ~options:base (Source.Text { name; text }),
          capacity_words)
    else begin
      match Frontend.load (Source.Text { name; text }) with
      | Error e ->
        Error (P.reject "compile_error" (Frontend.error_message e))
      | Ok (prog, _digest) ->
        (match prog.Emsc_ir.Prog.stmts with
         | [ s ] ->
           let arr l = Array.of_list l in
           let spec =
             Emsc_transform.Tile.spec_of_lists ~depth:s.Emsc_ir.Prog.depth
               ~block:(arr o.P.o_block) ~mem:(arr o.P.o_mem)
               ~thread:(arr o.P.o_thread)
           in
           let options =
             { base with
               Options.find_band = false; tiling = Options.Spec spec }
           in
           Ok (Pipeline.job ~options (Source.Program { name; prog }),
               capacity_words)
         | _ ->
           Error
             (P.reject "bad_request"
                "tile specs (block/mem/thread) require a \
                 single-statement program"))
    end

(* --- request execution ---------------------------------------------------- *)

(* one constant probe label per op: nothing is built per request *)
let probe_label : P.op -> string = function
  | P.Compile _ -> "serve.compile"
  | P.Analyze _ -> "serve.analyze"
  | P.Check _ -> "serve.check"
  | P.Status -> "serve.status"
  | P.Shutdown -> "serve.shutdown"

(* Runs one already-admitted operation.  [Ok (result, server)] is the
   deterministic payload plus the non-deterministic per-request server
   fields; rejects carry typed codes the client can branch on. *)
let execute ~cache ~default_machine (op : P.op) =
  let compile_op ~name ~text ~options ~payload_of =
    match job_of_request ~default_machine ~name ~text options with
    | Error r -> Error r
    | Ok (jb, capacity_words) ->
      (match Pipeline.compile ~cache jb with
       | Error e -> Error (P.reject "compile_error" (Frontend.error_message e))
       | Ok c ->
         (match payload_of ~capacity_words c with
          | payload ->
            Ok
              ( payload,
                [ ("cache_hits", J.Int c.Pipeline.cache_hits);
                  ("cache_misses", J.Int c.Pipeline.cache_misses) ] )
          | exception Failure m -> Error (P.reject "server_error" m)))
  in
  match op with
  | P.Compile { name; text; options } ->
    compile_op ~name ~text ~options ~payload_of:P.compile_result
  | P.Analyze { name; text; options } ->
    compile_op ~name ~text ~options ~payload_of:P.analyze_result
  | P.Check { fuzz; seed } ->
    (match Emsc_check.Fuzz.run ~fuzz ~seed () with
     | report -> Ok (Emsc_check.Fuzz.report_json report, [])
     | exception e ->
       Error (P.reject "server_error" (Printexc.to_string e)))
  | P.Status | P.Shutdown ->
    (* answered synchronously by the event loop, never queued *)
    Error (P.reject "server_error" "status/shutdown are not queueable")

(* --- connection state ----------------------------------------------------- *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : Buffer.t;           (* bytes read, not yet split into lines *)
  c_out : Buffer.t;          (* encoded responses awaiting the socket *)
  mutable c_out_off : int;   (* prefix of [c_out] already written *)
  mutable c_eof : bool;      (* stop reading (EOF or protocol error) *)
  mutable c_close : bool;    (* close once [c_out] drains *)
}

type task = {
  t_conn : int;
  t_req : P.request;
  t_arrival : float;
  t_deadline : float option;
}

let set_nonblock fd = try Unix.set_nonblock fd with Unix.Unix_error _ -> ()

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen_socket = function
  | `Unix path ->
    (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
         with Not_found -> Unix.inet_addr_loopback)
    in
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

(* --- the daemon ----------------------------------------------------------- *)

let run (cfg : config) : stats =
  let listen_fd = listen_socket cfg.addr in
  set_nonblock listen_fd;
  (* a write to a disconnected client must be an EPIPE error, not a
     process-killing signal *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;

  (* self-pipe: workers (and signal handlers) wake the select loop *)
  let wake_r, wake_w = Unix.pipe () in
  set_nonblock wake_r;
  set_nonblock wake_w;
  let wake () =
    try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in

  let drain_requested = Atomic.make false in
  if cfg.install_signal_handlers then begin
    let handler =
      Sys.Signal_handle (fun _ -> Atomic.set drain_requested true; wake ())
    in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler
  end;

  (* work queue: event loop pushes, worker domains pop *)
  let qmutex = Mutex.create () in
  let qcond = Condition.create () in
  let queue : task Queue.t = Queue.create () in
  let stop_workers = ref false in
  let in_flight = ref 0 in

  (* done queue: workers push encoded response lines back *)
  let dmutex = Mutex.create () in
  let done_q : (int * string * bool) Queue.t = Queue.create () in

  let observe_reject code =
    Prof.add ~labels:[ ("code", code) ] "serve.rejects" 1.0
  in

  let process (t : task) =
    let now = Unix.gettimeofday () in
    let queue_ms = (now -. t.t_arrival) *. 1000.0 in
    Prof.observe "serve.queue_ms" queue_ms;
    let expired =
      match t.t_deadline with Some d -> now > d | None -> false
    in
    let id = t.t_req.P.req_id in
    if expired then begin
      observe_reject "timeout";
      ( P.error_response ~id
          (P.reject "timeout"
             (Printf.sprintf "request spent %.0f ms queued, past its deadline"
                queue_ms)),
        false )
    end
    else begin
      let opn = P.op_name t.t_req.P.op in
      let result =
        Prof.probe (probe_label t.t_req.P.op) (fun () ->
          execute ~cache:cfg.cache ~default_machine:cfg.default_machine
            t.t_req.P.op)
      in
      let exec_ms = (Unix.gettimeofday () -. now) *. 1000.0 in
      Prof.observe "serve.exec_ms" exec_ms;
      Prof.observe ~labels:[ ("op", opn) ] "serve.request_ms"
        (queue_ms +. exec_ms);
      match result with
      | Ok (payload, server) ->
        Prof.add ~labels:[ ("op", opn) ] "serve.requests" 1.0;
        let server =
          server
          @ [ ("queue_ms", J.Float queue_ms); ("exec_ms", J.Float exec_ms) ]
        in
        (P.ok_response ~id ~server payload, true)
      | Error r ->
        observe_reject r.P.code;
        (P.error_response ~id r, false)
    end
  in

  let worker () =
    let rec loop () =
      Mutex.lock qmutex;
      while Queue.is_empty queue && not !stop_workers do
        Condition.wait qcond qmutex
      done;
      if Queue.is_empty queue then Mutex.unlock qmutex
      else begin
        let t = Queue.pop queue in
        incr in_flight;
        Mutex.unlock qmutex;
        let line, ok =
          try process t
          with e ->
            ( P.error_response ~id:t.t_req.P.req_id
                (P.reject "server_error" (Printexc.to_string e)),
              false )
        in
        Mutex.lock dmutex;
        Queue.push (t.t_conn, line, ok) done_q;
        Mutex.unlock dmutex;
        Mutex.lock qmutex;
        decr in_flight;
        Mutex.unlock qmutex;
        wake ();
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init cfg.workers (fun _ -> Domain.spawn worker) in

  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn = ref 0 in
  let served = ref 0 in
  let rejected = ref 0 in
  let accepted = ref 0 in
  let outstanding = ref 0 in   (* queued or executing, response not yet seen *)
  let draining = ref false in
  let t_start = Unix.gettimeofday () in

  let send c line =
    Buffer.add_string c.c_out line;
    Buffer.add_char c.c_out '\n'
  in

  let send_reject c ~id r =
    observe_reject r.P.code;
    incr rejected;
    send c (P.error_response ~id r)
  in

  (* the id of a line that failed validation, for the error echo *)
  let id_of_line line =
    match J.of_string line with
    | Ok j ->
      (match J.member "id" j with Some (J.Str s) -> s | _ -> "")
    | Error _ -> ""
  in

  let queue_depth () =
    Mutex.lock qmutex;
    let d = Queue.length queue and f = !in_flight in
    Mutex.unlock qmutex;
    (d, f)
  in

  let status_json () =
    let depth, flight = queue_depth () in
    J.Obj
      [ ("queue_depth", J.Int depth);
        ("in_flight", J.Int flight);
        ("outstanding", J.Int !outstanding);
        ("workers", J.Int cfg.workers);
        ("queue_capacity", J.Int cfg.queue_capacity);
        ("draining", J.Bool !draining);
        ("served", J.Int !served);
        ("rejected", J.Int !rejected);
        ("connections", J.Int !accepted);
        ( "uptime_ms",
          J.Float ((Unix.gettimeofday () -. t_start) *. 1000.0) );
        ("cache", Cache.stats_json cfg.cache) ]
  in

  (* Once drained, a still-open connection gets a short grace to send
     what it pipelined behind the shutdown, so that work is rejected
     rather than dropped: closing a socket with unread input resets it
     and loses the replies already written. *)
  let drain_until = ref infinity in
  let begin_drain () =
    if not !draining then begin
      draining := true;
      drain_until := Unix.gettimeofday () +. 0.5;
      cfg.log "draining: no new work accepted";
      (* stop accepting; connections stay open to collect responses *)
      close_noerr listen_fd
    end
  in

  let handle_request c (req : P.request) =
    match req.P.op with
    | P.Status ->
      incr served;
      send c (P.ok_response ~id:req.P.req_id (status_json ()))
    | P.Shutdown ->
      incr served;
      send c (P.ok_response ~id:req.P.req_id (J.Obj [ ("draining", J.Bool true) ]));
      begin_drain ()
    | P.Compile _ | P.Analyze _ | P.Check _ ->
      if !draining then
        send_reject c ~id:req.P.req_id
          (P.reject "draining" "daemon is shutting down")
      else begin
        let now = Unix.gettimeofday () in
        let timeout_ms =
          match req.P.timeout_ms with
          | Some ms -> ms
          | None -> cfg.default_timeout_ms
        in
        let deadline =
          if timeout_ms > 0.0 then Some (now +. (timeout_ms /. 1000.0))
          else None
        in
        let t =
          { t_conn = c.c_id; t_req = req; t_arrival = now;
            t_deadline = deadline }
        in
        Mutex.lock qmutex;
        let depth = Queue.length queue in
        let admitted = depth < cfg.queue_capacity in
        if admitted then begin
          Queue.push t queue;
          Prof.gauge_max "serve.queue_depth" (float_of_int (depth + 1));
          Condition.signal qcond
        end;
        Mutex.unlock qmutex;
        if admitted then incr outstanding
        else
          send_reject c ~id:req.P.req_id
            (P.reject "queue_full"
               (Printf.sprintf "queue at capacity (%d); retry later"
                  cfg.queue_capacity))
      end
  in

  let handle_line c line =
    match P.parse_request line with
    | Error r -> send_reject c ~id:(id_of_line line) r
    | Ok req -> handle_request c req
  in

  (* split [c_in] on newlines and process each complete line; reject the
     connection when a line grows past the cap (the alternative is
     buffering without bound on behalf of a broken client) *)
  let drain_input c =
    let data = Buffer.contents c.c_in in
    let n = String.length data in
    let pos = ref 0 in
    (try
       while !pos < n do
         match String.index_from data !pos '\n' with
         | nl ->
           let line = String.sub data !pos (nl - !pos) in
           pos := nl + 1;
           if String.length line > cfg.max_line_bytes then begin
             send_reject c ~id:""
               (P.reject "oversized_line"
                  (Printf.sprintf "request line exceeds %d bytes"
                     cfg.max_line_bytes));
             c.c_eof <- true;
             c.c_close <- true;
             raise Exit
           end
           else if line <> "" then handle_line c line
         | exception Not_found ->
           if n - !pos > cfg.max_line_bytes then begin
             send_reject c ~id:""
               (P.reject "oversized_line"
                  (Printf.sprintf "request line exceeds %d bytes"
                     cfg.max_line_bytes));
             c.c_eof <- true;
             c.c_close <- true;
             pos := n;
             raise Exit
           end;
           raise Exit
       done
     with Exit -> ());
    let rest = String.sub data !pos (n - !pos) in
    Buffer.clear c.c_in;
    Buffer.add_string c.c_in rest
  in

  let close_conn c =
    Hashtbl.remove conns c.c_id;
    close_noerr c.c_fd
  in

  let read_buf = Bytes.create 65536 in
  let read_conn c =
    match Unix.read c.c_fd read_buf 0 (Bytes.length read_buf) with
    | 0 ->
      c.c_eof <- true;
      (* whatever already arrived still gets parsed and answered *)
      drain_input c;
      if Buffer.length c.c_out = 0 && !outstanding = 0 then close_conn c
      else c.c_close <- true
    | n ->
      Buffer.add_subbytes c.c_in read_buf 0 n;
      drain_input c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error (_, _, _) ->
      c.c_eof <- true;
      c.c_close <- true
  in

  let write_conn c =
    let len = Buffer.length c.c_out - c.c_out_off in
    if len > 0 then begin
      let chunk = Buffer.to_bytes c.c_out in
      match Unix.write c.c_fd chunk c.c_out_off len with
      | n ->
        c.c_out_off <- c.c_out_off + n;
        if c.c_out_off >= Buffer.length c.c_out then begin
          Buffer.clear c.c_out;
          c.c_out_off <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
      | exception Unix.Unix_error (_, _, _) ->
        Buffer.clear c.c_out;
        c.c_out_off <- 0;
        c.c_eof <- true;
        c.c_close <- true
    end;
    if Buffer.length c.c_out = 0 && c.c_close then close_conn c
  in

  let accept_new () =
    let rec loop () =
      match Unix.accept listen_fd with
      | fd, _ ->
        set_nonblock fd;
        incr accepted;
        incr next_conn;
        let c =
          { c_id = !next_conn; c_fd = fd; c_in = Buffer.create 256;
            c_out = Buffer.create 256; c_out_off = 0; c_eof = false;
            c_close = false }
        in
        Hashtbl.replace conns c.c_id c;
        loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    loop ()
  in

  let deliver_done () =
    let batch = ref [] in
    Mutex.lock dmutex;
    while not (Queue.is_empty done_q) do
      batch := Queue.pop done_q :: !batch
    done;
    Mutex.unlock dmutex;
    List.iter
      (fun (conn_id, line, ok) ->
        decr outstanding;
        if ok then incr served else incr rejected;
        match Hashtbl.find_opt conns conn_id with
        | Some c -> send c line
        | None -> ())   (* client hung up before its answer was ready *)
      (List.rev !batch)
  in

  let drain_wake () =
    let b = Bytes.create 64 in
    let rec loop () =
      match Unix.read wake_r b 0 64 with
      | n when n > 0 -> loop ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ()
  in

  cfg.log
    (match cfg.addr with
     | `Unix p -> Printf.sprintf "listening on unix socket %s" p
     | `Tcp (h, p) -> Printf.sprintf "listening on %s:%d" h p);

  let finished = ref false in
  while not !finished do
    if Atomic.get drain_requested then begin_drain ();
    let reads =
      wake_r
      :: (if !draining then [] else [ listen_fd ])
      @ Hashtbl.fold
          (fun _ c acc -> if c.c_eof then acc else c.c_fd :: acc)
          conns []
    in
    let writes =
      Hashtbl.fold
        (fun _ c acc ->
          if Buffer.length c.c_out - c.c_out_off > 0 then c.c_fd :: acc
          else acc)
        conns []
    in
    (match Unix.select reads writes [] 0.2 with
     | rs, ws, _ ->
       if List.mem wake_r rs then drain_wake ();
       deliver_done ();
       if not !draining && List.mem listen_fd rs then accept_new ();
       (* snapshot: handlers mutate [conns] *)
       let by_fd =
         Hashtbl.fold (fun _ c acc -> (c.c_fd, c) :: acc) conns []
       in
       List.iter
         (fun fd ->
           match List.assoc_opt fd by_fd with
           | Some c when not c.c_eof -> read_conn c
           | _ -> ())
         rs;
       List.iter
         (fun fd ->
           match List.assoc_opt fd by_fd with
           | Some c -> write_conn c
           | None -> ())
         ws
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    deliver_done ();
    (* flush anything newly buffered to sockets that can take it *)
    Hashtbl.iter (fun _ c -> write_conn c) conns;
    (* closed clients with nothing pending *)
    let dead =
      Hashtbl.fold
        (fun _ c acc ->
          if c.c_eof && Buffer.length c.c_out = 0 && !outstanding = 0 then
            c :: acc
          else acc)
        conns []
    in
    List.iter close_conn dead;
    if !draining then begin
      let depth, flight = queue_depth () in
      let pending_out =
        Hashtbl.fold
          (fun _ c acc -> acc + Buffer.length c.c_out - c.c_out_off)
          conns 0
      in
      let open_conns =
        Hashtbl.fold (fun _ c n -> if c.c_eof then n else n + 1) conns 0
      in
      if depth = 0 && flight = 0 && !outstanding = 0 && pending_out = 0
         && (open_conns = 0 || Unix.gettimeofday () >= !drain_until)
      then finished := true
    end
  done;

  (* graceful exit: stop the pool, join, release every descriptor *)
  Mutex.lock qmutex;
  stop_workers := true;
  Condition.broadcast qcond;
  Mutex.unlock qmutex;
  Array.iter Domain.join domains;
  Hashtbl.iter (fun _ c -> close_noerr c.c_fd) conns;
  Hashtbl.reset conns;
  close_noerr wake_r;
  close_noerr wake_w;
  (match cfg.addr with
   | `Unix path ->
     (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ())
   | `Tcp _ -> ());
  cfg.log
    (Printf.sprintf "drained: %d served, %d rejected, %d connection(s)"
       !served !rejected !accepted);
  { served = !served; rejected = !rejected; connections = !accepted }
