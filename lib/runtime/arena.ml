open Emsc_machine
module Ev = Emsc_obs.Events

type pool = {
  m : Mutex.t;
  cv : Condition.t;
  max_arenas : int option;
  base : Memory.t;
  fork : Memory.t -> Memory.t;
  mutable free_views : Memory.t list;  (* recycled, locals cleared *)
  mutable in_use : int;
  mutable words_in_use : int;
  mutable peak_in_use : int;
  occupancy : (string, int) Hashtbl.t;  (* per-buffer per-arena peak *)
  mutable evr : Ev.ring option;
      (* occupancy events; written only under [m], which satisfies the
         ring's single-writer contract *)
}

type t = {
  pool : pool;
  words : int;
  mem : Memory.t;
  mutable released : bool;  (* guarded by [pool.m] *)
}

let create_pool ?max_arenas ?fork ~base () =
  { m = Mutex.create (); cv = Condition.create (); max_arenas; base;
    fork = (match fork with Some f -> f | None -> Memory.fork_view);
    free_views = []; in_use = 0; words_in_use = 0;
    peak_in_use = 0; occupancy = Hashtbl.create 4; evr = None }

let set_event_ring p r =
  Mutex.lock p.m;
  p.evr <- Some r;
  Mutex.unlock p.m

(* caller holds [p.m] *)
let emit_occupancy p =
  match p.evr with
  | Some r when Ev.enabled () ->
    let t = Ev.now () in
    Ev.emit r ~t0:t ~t1:t
      (Ev.Occupancy { words = p.words_in_use; arenas = p.in_use })
  | _ -> ()

let has_room p =
  match p.max_arenas with Some k -> p.in_use < k | None -> true

(* caller holds [p.m] and has checked [has_room].  The view fork runs
   before any counter moves, so a raise (injected fork in tests, OOM)
   leaves the pool's accounting untouched — but the CALLER must unlock
   [p.m] on the way out, or every later acquirer deadlocks. *)
let take_locked p words =
  let mem =
    match p.free_views with
    | v :: rest ->
      p.free_views <- rest;
      v
    | [] -> p.fork p.base
  in
  p.in_use <- p.in_use + 1;
  p.words_in_use <- p.words_in_use + words;
  if p.in_use > p.peak_in_use then p.peak_in_use <- p.in_use;
  emit_occupancy p;
  { pool = p; words; mem; released = false }

let acquire p ~words =
  Mutex.lock p.m;
  while not (has_room p) do
    Condition.wait p.cv p.m
  done;
  match take_locked p words with
  | a ->
    Mutex.unlock p.m;
    a
  | exception e ->
    Mutex.unlock p.m;
    raise e

let try_acquire p ~words =
  Mutex.lock p.m;
  let r =
    if has_room p then
      match take_locked p words with
      | a -> Some a
      | exception e ->
        Mutex.unlock p.m;
        raise e
    else None
  in
  Mutex.unlock p.m;
  r

let memory a = a.mem

let release a =
  let p = a.pool in
  Mutex.lock p.m;
  if not a.released then begin
    a.released <- true;
    List.iter (fun (name, cells) ->
      match Hashtbl.find_opt p.occupancy name with
      | Some prev when prev >= cells -> ()
      | _ -> Hashtbl.replace p.occupancy name cells)
      (Memory.local_occupancy a.mem);
    Memory.clear_locals a.mem;
    p.free_views <- a.mem :: p.free_views;
    p.in_use <- p.in_use - 1;
    p.words_in_use <- p.words_in_use - a.words;
    emit_occupancy p;
    Condition.broadcast p.cv
  end;
  Mutex.unlock p.m

let in_use p =
  Mutex.lock p.m;
  let n = p.in_use in
  Mutex.unlock p.m;
  n

let peak_in_use p =
  Mutex.lock p.m;
  let n = p.peak_in_use in
  Mutex.unlock p.m;
  n

let peak_occupancy p =
  Mutex.lock p.m;
  let occ = Hashtbl.fold (fun n c acc -> (n, c) :: acc) p.occupancy [] in
  Mutex.unlock p.m;
  List.sort compare occ
