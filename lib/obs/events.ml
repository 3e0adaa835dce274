type kind = Exec_track | Dma_track | Arena_track

type phase = Whole | Compute | Move_in | Move_out

type data =
  | Block of { launch : int; block : int; phase : phase }
  | Dma_transfer of {
      launch : int;
      block : int;
      dir : [ `In | `Out ];
      words : float;
    }
  | Dma_wait of { launch : int; block : int }
  | Arena_wait
  | Occupancy of { words : int; arenas : int }

type event = { t0 : float; t1 : float; data : data }

(* Single-writer ring: [buf.(seq mod cap)] is the next slot; once [seq]
   passes [cap] the oldest events are overwritten and counted as
   dropped.  [seq] is a plain mutable — the one writer bumps it, and
   readers only look after a happens-before edge (pool barrier). *)
type ring = {
  r_name : string;
  r_kind : kind;
  buf : event option array;
  mutable seq : int;
}

type track = {
  t_name : string;
  t_kind : kind;
  dropped : int;
  events : event list;
}

let enabled_flag = ref false
let enabled () = !enabled_flag

let default_capacity = 65536
let capacity = ref default_capacity

let default_clock = Unix.gettimeofday
let clock = ref default_clock
let set_clock c = clock := c
let use_default_clock () = clock := default_clock
let now () = !clock ()

(* registration order preserved; guarded by [reg_m] *)
let reg_m = Mutex.create ()
let rings : ring list ref = ref []  (* reverse registration order *)

let enable ?capacity:(cap = default_capacity) () =
  if cap < 1 then invalid_arg "Events.enable: capacity < 1";
  (* future rings get the new capacity; existing ones keep theirs *)
  capacity := cap;
  enabled_flag := true

let disable () = enabled_flag := false

let reset () =
  Mutex.lock reg_m;
  rings := [];
  Mutex.unlock reg_m

let ring ~kind name =
  Mutex.lock reg_m;
  let r =
    match List.find_opt (fun r -> r.r_name = name) !rings with
    | Some r -> r
    | None ->
      let r =
        { r_name = name; r_kind = kind;
          buf = Array.make !capacity None; seq = 0 }
      in
      rings := r :: !rings;
      r
  in
  Mutex.unlock reg_m;
  r

let emit r ~t0 ?t1 data =
  if !enabled_flag then begin
    let t1 = match t1 with Some t -> t | None -> !clock () in
    let cap = Array.length r.buf in
    r.buf.(r.seq mod cap) <- Some { t0; t1; data };
    r.seq <- r.seq + 1
  end

let drain_ring r =
  let cap = Array.length r.buf in
  let n = min r.seq cap in
  let dropped = r.seq - n in
  (* oldest surviving event sits at [seq mod cap] once wrapped, at 0
     otherwise *)
  let first = if r.seq > cap then r.seq mod cap else 0 in
  let events = ref [] in
  for i = n - 1 downto 0 do
    match r.buf.((first + i) mod cap) with
    | Some e -> events := e :: !events
    | None -> ()
  done;
  { t_name = r.r_name; t_kind = r.r_kind; dropped; events = !events }

let drain () =
  Mutex.lock reg_m;
  let rs = List.rev !rings in
  Mutex.unlock reg_m;
  List.map drain_ring rs

(* --- Chrome trace_event rendering -------------------------------------- *)

let runtime_pid = 2

let event_name = function
  | Block { phase = Whole; _ } -> "block"
  | Block { phase = Compute; _ } -> "compute"
  | Block { phase = Move_in; _ } -> "move-in"
  | Block { phase = Move_out; _ } -> "move-out"
  | Dma_transfer { dir = `In; _ } -> "dma-in"
  | Dma_transfer { dir = `Out; _ } -> "dma-out"
  | Dma_wait _ -> "dma-wait"
  | Arena_wait -> "arena-wait"
  | Occupancy _ -> "occupancy"

let event_args = function
  | Block { launch; block; _ } | Dma_wait { launch; block } ->
    [ ("launch", Json.Int launch); ("block", Json.Int block) ]
  | Dma_transfer { launch; block; words; _ } ->
    [ ("launch", Json.Int launch); ("block", Json.Int block);
      ("words", Json.Float words) ]
  | Arena_wait -> []
  | Occupancy { words; arenas } ->
    [ ("words", Json.Int words); ("arenas", Json.Int arenas) ]

let chrome_events tracks =
  let out = ref [] in
  let push e = out := e :: !out in
  (match tracks with
   | [] -> ()
   | _ ->
     push
       (Json.Obj
          [ ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int runtime_pid);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.Str "emsc runtime") ]) ]));
  List.iteri
    (fun i tr ->
       let tid = i + 1 in
       push
         (Json.Obj
            [ ("name", Json.Str "thread_name");
              ("ph", Json.Str "M");
              ("pid", Json.Int runtime_pid);
              ("tid", Json.Int tid);
              ("args", Json.Obj [ ("name", Json.Str tr.t_name) ]) ]);
       List.iter
         (fun e ->
            let args = event_args e.data in
            push
              (Json.Obj
                 ([ ("name", Json.Str (event_name e.data));
                    ("cat", Json.Str "emsc-runtime");
                    ("ph", Json.Str "X");
                    ("ts", Json.Float (e.t0 *. 1e6));
                    ("dur", Json.Float (max 0.0 (e.t1 -. e.t0) *. 1e6));
                    ("pid", Json.Int runtime_pid);
                    ("tid", Json.Int tid) ]
                  @ (if args = [] then []
                     else [ ("args", Json.Obj args) ]))))
         tr.events)
    tracks;
  List.rev !out

let merged_chrome_json () =
  let tracks = drain () in
  (* keep empty tracks out of the file so an events-off profile is
     byte-identical to the compile-only trace *)
  let tracks = List.filter (fun t -> t.events <> [] || t.dropped > 0) tracks in
  Json.Obj
    [ ("traceEvents",
       Json.List (Prof.chrome_events () @ chrome_events tracks));
      ("displayTimeUnit", Json.Str "ms") ]

let write_merged_chrome path =
  Io.write_file path (Json.to_string (merged_chrome_json ()) ^ "\n")
