(* Content-addressed pass cache, shared across domains.

   The memory layer is an exact LRU with an optional entry cap: a
   long-running process (the [emsc serve] daemon) front-loads every
   worker's lookups through this table, so it must both be safe to hit
   from concurrent domains and be bounded.  Every mutation of the
   table, the recency list and the counters happens under one mutex;
   the expensive parts — marshalling, disk I/O, and above all the
   cached computation itself — run outside it, so two domains may race
   to compute the same key (both miss, both store, last store wins;
   the values are content-addressed so either result is correct). *)

(* Exact LRU over a circular doubly-linked list with a sentinel:
   [sentinel.next] is most recent, [sentinel.prev] least recent. *)
type node = {
  n_key : string;
  n_bytes : string;
  mutable prev : node;
  mutable next : node;
}

type t = {
  on : bool;
  dir : string option;
  max_entries : int option;
  mu : Mutex.t;
  mem : (string, node) Hashtbl.t;
  sentinel : node;
  mutable hot_hits : int;   (* served from the memory layer *)
  mutable disk_hits : int;  (* memory miss, disk hit (then promoted) *)
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
}

let make_sentinel () =
  let rec s = { n_key = ""; n_bytes = ""; prev = s; next = s } in
  s

let make ~on ~dir ~max_entries =
  { on; dir; max_entries; mu = Mutex.create ();
    mem = Hashtbl.create 64; sentinel = make_sentinel ();
    hot_hits = 0; disk_hits = 0; misses = 0; stores = 0; evictions = 0 }

let off = make ~on:false ~dir:None ~max_entries:None

let in_memory ?max_entries () = make ~on:true ~dir:None ~max_entries

let default_dir () =
  let non_empty = function Some d when d <> "" -> Some d | _ -> None in
  match non_empty (Sys.getenv_opt "EMSC_CACHE_DIR") with
  | Some d -> d
  | None ->
    (match non_empty (Sys.getenv_opt "XDG_CACHE_HOME") with
     | Some d -> Filename.concat d "emsc"
     | None ->
       (match non_empty (Sys.getenv_opt "HOME") with
        | Some h -> Filename.concat (Filename.concat h ".cache") "emsc"
        | None -> Filename.concat (Filename.get_temp_dir_name ()) "emsc-cache"))

let rec mkdir_p d =
  if d <> "" && not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let create ?dir ?max_entries () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let dir =
    try
      mkdir_p dir;
      if Sys.is_directory dir then Some dir else None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  make ~on:true ~dir ~max_entries

let enabled t = t.on
let dir t = t.dir
let max_entries t = t.max_entries

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v -> Mutex.unlock t.mu; v
  | exception e -> Mutex.unlock t.mu; raise e

let hits t = locked t (fun () -> t.hot_hits + t.disk_hits)
let hot_hits t = locked t (fun () -> t.hot_hits)
let disk_hits t = locked t (fun () -> t.disk_hits)
let misses t = locked t (fun () -> t.misses)
let stores t = locked t (fun () -> t.stores)
let evictions t = locked t (fun () -> t.evictions)
let mem_entries t = locked t (fun () -> Hashtbl.length t.mem)

let key ~digest ~stage ~extra =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ Build_id.id; digest; stage; extra ]))

(* list surgery; call with t.mu held *)
let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

(* insert (or refresh) [key -> bytes] at the front, evicting from the
   tail when over the cap; returns the eviction count of this insert *)
let insert_locked t key bytes =
  (match Hashtbl.find_opt t.mem key with
   | Some old -> unlink old; Hashtbl.remove t.mem key
   | None -> ());
  let n = { n_key = key; n_bytes = bytes; prev = t.sentinel; next = t.sentinel } in
  push_front t n;
  Hashtbl.replace t.mem key n;
  let evicted = ref 0 in
  (match t.max_entries with
   | Some cap ->
     while Hashtbl.length t.mem > max 0 cap do
       let lru = t.sentinel.prev in
       if lru == t.sentinel then Hashtbl.reset t.mem (* cap = 0 *)
       else begin
         unlink lru;
         Hashtbl.remove t.mem lru.n_key;
         incr evicted
       end
     done
   | None -> ());
  t.evictions <- t.evictions + !evicted;
  !evicted

let note_evictions n =
  if n > 0 then
    Emsc_obs.Prof.add "driver.cache.evictions" (float_of_int n)

let read_all path =
  match open_in_bin path with
  | ic ->
    (try
       Some
         (Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> In_channel.input_all ic))
     with Sys_error _ -> None)
  | exception Sys_error _ -> None

let decode bytes = try Some (Marshal.from_string bytes 0) with _ -> None

(* [find_where] is [find] that also reports which layer answered, so
   [memo] can split the hit counters *)
let find_where t ~key =
  if not t.on then None
  else
    let cached =
      locked t (fun () ->
        match Hashtbl.find_opt t.mem key with
        | Some n ->
          unlink n;
          push_front t n;
          Some n.n_bytes
        | None -> None)
    in
    match cached with
    | Some bytes ->
      (* a torn or corrupt entry is impossible in memory (strings are
         immutable once linked), but decode defensively anyway *)
      (match decode bytes with Some v -> Some (v, `Hot) | None -> None)
    | None ->
      (match t.dir with
       | None -> None
       | Some dir ->
         let path = Filename.concat dir key in
         if Sys.file_exists path then
           match read_all path with
           | Some bytes ->
             (match decode bytes with
              | Some v ->
                let ev = locked t (fun () -> insert_locked t key bytes) in
                note_evictions ev;
                Some (v, `Disk)
              | None -> None)
           | None -> None
         else None)

let find t ~key = Option.map fst (find_where t ~key)

let store ?(writer = output_string) t ~key v =
  if t.on then begin
    let bytes = Marshal.to_string v [] in
    let ev = locked t (fun () -> insert_locked t key bytes) in
    note_evictions ev;
    locked t (fun () -> t.stores <- t.stores + 1);
    match t.dir with
    | None -> ()
    | Some dir ->
      (* atomic publish: concurrent workers may race on the same
         entry; last rename wins and every intermediate state is a
         complete file.  A failed write must not orphan the .tmp file:
         close and unlink before the error is swallowed (or re-raised
         for non-I/O exceptions).  The tmp name carries pid and domain
         so two domains of one process never collide. *)
      (try
         let tmp =
           Filename.concat dir
             (Printf.sprintf ".%s.%d.%d.tmp" key (Unix.getpid ())
                (Domain.self () :> int))
         in
         let oc = open_out_bin tmp in
         (match writer oc bytes with
          | () ->
            close_out_noerr oc;
            Sys.rename tmp (Filename.concat dir key)
          | exception e ->
            close_out_noerr oc;
            (try Sys.remove tmp with Sys_error _ -> ());
            raise e)
       with Sys_error _ | Unix.Unix_error _ -> ())
  end

let memo t ~key f =
  if not t.on then (f (), false)
  else begin
    (* lookup/store latencies feed warm-vs-cold compile cost into the
       compile_profile artifact: a hit's cost is its lookup (decode,
       possibly disk), a miss pays lookup + compute + store *)
    let t0 = Unix.gettimeofday () in
    let found =
      Emsc_obs.Prof.probe "driver.cache.lookup" (fun () -> find_where t ~key)
    in
    let lookup_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    match found with
    | Some (v, layer) ->
      locked t (fun () ->
        match layer with
        | `Hot -> t.hot_hits <- t.hot_hits + 1
        | `Disk -> t.disk_hits <- t.disk_hits + 1);
      Emsc_obs.Prof.add "driver.cache.hits" 1.0;
      Emsc_obs.Prof.add
        (match layer with
         | `Hot -> "driver.cache.hot_hits"
         | `Disk -> "driver.cache.disk_hits")
        1.0;
      Emsc_obs.Prof.observe "driver.cache.hit_ms" lookup_ms;
      (v, true)
    | None ->
      locked t (fun () -> t.misses <- t.misses + 1);
      Emsc_obs.Prof.add "driver.cache.misses" 1.0;
      Emsc_obs.Prof.observe "driver.cache.miss_ms" lookup_ms;
      let v = f () in
      let t1 = Unix.gettimeofday () in
      Emsc_obs.Prof.probe "driver.cache.store" (fun () -> store t ~key v);
      Emsc_obs.Prof.observe "driver.cache.store_ms"
        ((Unix.gettimeofday () -. t1) *. 1000.0);
      Emsc_obs.Prof.add "driver.cache.stores" 1.0;
      (v, false)
  end

let stats_json t =
  let hot, disk, miss, st, ev, entries =
    locked t (fun () ->
      (t.hot_hits, t.disk_hits, t.misses, t.stores, t.evictions,
       Hashtbl.length t.mem))
  in
  Emsc_obs.Json.Obj
    [ ("enabled", Emsc_obs.Json.Bool t.on);
      ( "dir",
        match t.dir with
        | Some d -> Emsc_obs.Json.Str d
        | None -> Emsc_obs.Json.Null );
      ("hits", Emsc_obs.Json.Int (hot + disk));
      ("hot_hits", Emsc_obs.Json.Int hot);
      ("disk_hits", Emsc_obs.Json.Int disk);
      ("misses", Emsc_obs.Json.Int miss);
      ("stores", Emsc_obs.Json.Int st);
      ("evictions", Emsc_obs.Json.Int ev);
      ("mem_entries", Emsc_obs.Json.Int entries);
      ( "max_entries",
        match t.max_entries with
        | Some n -> Emsc_obs.Json.Int n
        | None -> Emsc_obs.Json.Null ) ]
