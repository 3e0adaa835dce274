type ticket = {
  tm : Mutex.t;
  tcv : Condition.t;
  mutable finished : bool;
  mutable failure : exn option;
}

type t = {
  m : Mutex.t;
  queue : (unit -> unit) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable serving : bool;  (* a domain serves the queue *)
  mutable waiting : bool;  (* ...and lingers in [select] for a wake byte *)
  mutable stopping : bool;  (* process exit: retire without lingering *)
  mutable domain : unit Domain.t option;  (* the last domain spawned *)
}

(* Long enough to bridge the gap between two launches or two runs,
   short enough that an idle domain does not tax the minor GCs of the
   work that follows: in OCaml 5.1 every live domain takes part in
   every minor collection, even one blocked waiting for work. *)
let linger_s = 0.020

let live_lanes = Atomic.make 0
let live () = Atomic.get live_lanes

let registry_m = Mutex.create ()
let registry : t list ref = ref []

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let l =
    { m = Mutex.create (); queue = Queue.create (); wake_r; wake_w;
      serving = false; waiting = false; stopping = false; domain = None }
  in
  Mutex.protect registry_m (fun () -> registry := l :: !registry);
  l

(* caller holds [l.m]; a lingering domain reads back exactly one byte
   per wake, because the waker clears [waiting] as it writes *)
let wake_locked l =
  l.waiting <- false;
  ignore (Unix.write_substring l.wake_w "w" 0 1)

(* caller holds [l.m]; the serving domain ends right after *)
let retire_locked l =
  l.serving <- false;
  Atomic.decr live_lanes;
  Mutex.unlock l.m

let rec serve l =
  Mutex.lock l.m;
  match Queue.take_opt l.queue with
  | Some job ->
    Mutex.unlock l.m;
    job ();
    serve l
  | None when l.stopping -> retire_locked l
  | None ->
    l.waiting <- true;
    Mutex.unlock l.m;
    (try ignore (Unix.select [ l.wake_r ] [] [] linger_s)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Mutex.lock l.m;
    if l.waiting then begin
      (* nothing arrived within the linger: retire, and let the next
         [submit] spawn a fresh domain *)
      l.waiting <- false;
      retire_locked l
    end
    else begin
      ignore (Unix.read l.wake_r (Bytes.create 1) 0 1);
      Mutex.unlock l.m;
      serve l
    end

let submit l f =
  let t =
    { tm = Mutex.create (); tcv = Condition.create (); finished = false;
      failure = None }
  in
  let job () =
    (try f () with e -> t.failure <- Some e);
    Mutex.lock t.tm;
    t.finished <- true;
    Condition.broadcast t.tcv;
    Mutex.unlock t.tm
  in
  let retired =
    Mutex.protect l.m @@ fun () ->
    let retired =
      if l.waiting then begin
        wake_locked l;
        None
      end
      else if l.serving then None
      else begin
        (* the new domain blocks on [l.m] until the job is queued *)
        let d = Domain.spawn (fun () -> serve l) in
        l.serving <- true;
        Atomic.incr live_lanes;
        Emsc_obs.Prof.add "runtime.domain_spawns" 1.0;
        let prev = l.domain in
        l.domain <- Some d;
        prev
      end
    in
    Queue.push job l.queue;
    retired
  in
  (* the previous domain has retired; joining it only reaps it *)
  Option.iter Domain.join retired;
  t

let wait t =
  Mutex.lock t.tm;
  while not t.finished do
    Condition.wait t.tcv t.tm
  done;
  Mutex.unlock t.tm

let await t =
  wait t;
  match t.failure with Some e -> raise e | None -> ()

let await_all ts =
  List.iter wait ts;
  match List.find_map (fun t -> t.failure) ts with
  | Some e -> raise e
  | None -> ()

(* At exit, wake every lingering lane with [stopping] set so it retires
   at once, and reap it; a lane still running a job retires when its
   queue drains. *)
let () =
  at_exit (fun () ->
    let lanes = Mutex.protect registry_m (fun () -> !registry) in
    List.filter_map
      (fun l ->
        Mutex.protect l.m (fun () ->
          l.stopping <- true;
          if l.waiting then begin
            wake_locked l;
            let d = l.domain in
            l.domain <- None;
            d
          end
          else None))
      lanes
    |> List.iter Domain.join)
