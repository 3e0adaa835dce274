(* Hierarchical self-profiler and span tracer: the one probe substrate.

   Same discipline as Events: disabled by default, and every entry
   point tests one boolean first, so instrumented code costs nothing
   measurable when profiling is off (the [wrap]/[wrap2] forms exist so
   hot call-sites do not even allocate a closure).  When enabled, each
   probe pushes its label on a per-domain stack and feeds two sinks:

   - the aggregate, always on: (calls, errors, inclusive seconds)
     accumulate in a per-domain table keyed by the full label stack —
     caller attribution falls out of the key, and memory is bounded by
     the number of distinct stacks, not by the call count;
   - the span tree, on only while [enable_tree] is in force: one node
     per probe with its start, duration, args and counters, for the
     Chrome trace export.  Its memory grows with the call count.

   Domain-safe the same way Events is: each domain owns its state
   (registered under a mutex on first probe), writers never share
   cells, and [snapshot]/[roots] merge every domain's state after the
   caller has established a happens-before edge (joined its domains). *)

type node = {
  name : string;
  args : (string * Json.t) list;
  start_s : float;
  dur_s : float;
  counters : (string * float) list;
  children : node list;
}

(* a tree-sink span still open on its domain; counters and children
   accumulate in reverse *)
type open_span = {
  o_name : string;
  o_args : (string * Json.t) list;
  o_start : float;
  mutable o_counters : (string * float) list;
  mutable o_children : node list;
}

type acc = {
  mutable a_calls : int;
  mutable a_errors : int;
  mutable a_total : float;
}

type dstate = {
  mutable d_stack : string list; (* open probes, innermost first *)
  d_frames : (string list, acc) Hashtbl.t;
  d_counters : (string list * string, float ref) Hashtbl.t;
  d_root : open_span; (* this domain's completed top-level spans *)
  mutable d_open : open_span; (* innermost open span, [d_root] if none *)
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

let tree_flag = ref false
let enable_tree () = tree_flag := true
let disable_tree () = tree_flag := false

let default_clock = Unix.gettimeofday
let clock = ref default_clock
let set_clock c = clock := c
let use_default_clock () = clock := default_clock

(* registered domain states; [generation] invalidates cached DLS
   states across [reset] so a reset never resurrects old tables *)
let reg_m = Mutex.create ()
let states : dstate list ref = ref []
let generation = ref 0

let reset () =
  Mutex.lock reg_m;
  states := [];
  incr generation;
  Mutex.unlock reg_m

let dls_key : (int * dstate) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | Some (g, st) when g = !generation -> st
  | _ ->
    let root =
      { o_name = ""; o_args = []; o_start = 0.0; o_counters = [];
        o_children = [] }
    in
    let st =
      { d_stack = []; d_frames = Hashtbl.create 64;
        d_counters = Hashtbl.create 16; d_root = root; d_open = root }
    in
    Mutex.lock reg_m;
    let g = !generation in
    states := st :: !states;
    Mutex.unlock reg_m;
    cell := Some (g, st);
    st

let record st path dt ~error =
  let e = if error then 1 else 0 in
  match Hashtbl.find_opt st.d_frames path with
  | Some a ->
    a.a_calls <- a.a_calls + 1;
    a.a_errors <- a.a_errors + e;
    a.a_total <- a.a_total +. dt
  | None ->
    Hashtbl.add st.d_frames path { a_calls = 1; a_errors = e; a_total = dt }

let by_name (a, _) (b, _) = String.compare a b

let close_span o t1 error =
  let args =
    match error with
    | Some e -> o.o_args @ [ ("error", Json.Str (Printexc.to_string e)) ]
    | None -> o.o_args
  in
  { name = o.o_name; args; start_s = o.o_start; dur_s = t1 -. o.o_start;
    counters = List.sort by_name o.o_counters;
    children = List.rev o.o_children }

let probe ?args name f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let saved = st.d_stack in
    let path = name :: saved in
    st.d_stack <- path;
    let parent = st.d_open in
    (* only a recorded node reads the args, built before the clock
       starts so their cost stays out of the span *)
    let node_args =
      match args with Some a when !tree_flag -> a () | _ -> []
    in
    let t0 = !clock () in
    let span =
      if not !tree_flag then parent
      else begin
        let o =
          { o_name = name; o_args = node_args; o_start = t0; o_counters = [];
            o_children = [] }
        in
        st.d_open <- o;
        o
      end
    in
    let pop error =
      let t1 = !clock () in
      st.d_stack <- saved;
      record st path (t1 -. t0) ~error:(Option.is_some error);
      if span != parent then begin
        st.d_open <- parent;
        parent.o_children <- close_span span t1 error :: parent.o_children
      end
    in
    match f () with
    | r -> pop None; r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      pop (Some e);
      Printexc.raise_with_backtrace e bt
  end

(* No-closure wrappers for hot call-sites: fully applied, so the
   disabled path is one flag test and a direct call — no allocation. *)

let wrap name f x = if not !enabled_flag then f x else probe name (fun () -> f x)

let wrap2 name f x y =
  if not !enabled_flag then f x y else probe name (fun () -> f x y)

let rec bump name v = function
  | [] -> [ (name, v) ]
  | (k, x) :: rest when String.equal k name -> (k, x +. v) :: rest
  | kv :: rest -> kv :: bump name v rest

let add name v =
  if !enabled_flag then begin
    let st = state () in
    let key = (st.d_stack, name) in
    (match Hashtbl.find_opt st.d_counters key with
     | Some r -> r := !r +. v
     | None -> Hashtbl.add st.d_counters key (ref v));
    let o = st.d_open in
    if o != st.d_root then o.o_counters <- bump name v o.o_counters
  end

let registered () =
  Mutex.lock reg_m;
  let sts = !states in
  Mutex.unlock reg_m;
  sts

(* --- snapshots ---------------------------------------------------------- *)

type frame = {
  f_stack : string list; (* outermost first *)
  f_calls : int;
  f_errors : int;
  f_total_s : float;
  f_self_s : float;      (* total minus probed children, clamped at 0 *)
  f_counters : (string * float) list;
}

type profile = frame list

let snapshot () =
  (* merge per-domain tables; keys are innermost-first label stacks *)
  let totals : (string list, acc) Hashtbl.t = Hashtbl.create 64 in
  let counters : (string list * string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun st ->
    Hashtbl.iter (fun path a ->
      match Hashtbl.find_opt totals path with
      | Some m ->
        m.a_calls <- m.a_calls + a.a_calls;
        m.a_errors <- m.a_errors + a.a_errors;
        m.a_total <- m.a_total +. a.a_total
      | None ->
        Hashtbl.add totals path
          { a_calls = a.a_calls; a_errors = a.a_errors; a_total = a.a_total })
      st.d_frames;
    Hashtbl.iter (fun key r ->
      let cur = try Hashtbl.find counters key with Not_found -> 0.0 in
      Hashtbl.replace counters key (cur +. !r))
      st.d_counters)
    (registered ());
  (* counters recorded under a stack that never completed a probe (or
     outside any probe) still need a frame to hang off *)
  Hashtbl.iter (fun (path, _) _ ->
    if path <> [] && not (Hashtbl.mem totals path) then
      Hashtbl.add totals path { a_calls = 0; a_errors = 0; a_total = 0.0 })
    counters;
  (* self = total - sum of direct probed children *)
  let selfs : (string list, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun path a -> Hashtbl.replace selfs path a.a_total) totals;
  Hashtbl.iter (fun path a ->
    match path with
    | _ :: parent when Hashtbl.mem totals parent ->
      Hashtbl.replace selfs parent
        (Hashtbl.find selfs parent -. a.a_total)
    | _ -> ())
    totals;
  let frames =
    Hashtbl.fold (fun path a fs ->
      let cs =
        Hashtbl.fold (fun (p, name) v cs ->
          if p = path then (name, v) :: cs else cs)
          counters []
        |> List.sort by_name
      in
      { f_stack = List.rev path;
        f_calls = a.a_calls;
        f_errors = a.a_errors;
        f_total_s = a.a_total;
        f_self_s = Float.max 0.0 (Hashtbl.find selfs path);
        f_counters = cs }
      :: fs)
      totals []
  in
  List.sort (fun a b -> compare a.f_stack b.f_stack) frames

let attributed_s prof =
  List.fold_left (fun acc f ->
    match f.f_stack with [ _ ] -> acc +. f.f_total_s | _ -> acc)
    0.0 prof

(* --- per-pass aggregation (leaf label, across stacks) ------------------- *)

type pass = {
  p_name : string;
  p_calls : int;
  p_errors : int;
  p_total_s : float;
  p_self_s : float;
  p_counters : (string * float) list;
}

let leaf f = List.nth f.f_stack (List.length f.f_stack - 1)

let passes prof =
  let tbl : (string, pass) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun f ->
    let name = leaf f in
    let cur =
      match Hashtbl.find_opt tbl name with
      | Some p -> p
      | None ->
        { p_name = name; p_calls = 0; p_errors = 0; p_total_s = 0.0;
          p_self_s = 0.0; p_counters = [] }
    in
    Hashtbl.replace tbl name
      { cur with
        p_calls = cur.p_calls + f.f_calls;
        p_errors = cur.p_errors + f.f_errors;
        p_total_s = cur.p_total_s +. f.f_total_s;
        p_self_s = cur.p_self_s +. f.f_self_s;
        p_counters =
          List.fold_left (fun cs (k, v) -> bump k v cs) cur.p_counters
            f.f_counters })
    prof;
  Hashtbl.fold
    (fun _ p acc -> { p with p_counters = List.sort by_name p.p_counters } :: acc)
    tbl []
  |> List.sort (fun a b ->
       match compare b.p_self_s a.p_self_s with
       | 0 -> String.compare a.p_name b.p_name
       | c -> c)

let top_self ?(k = 15) prof =
  let ps = passes prof in
  List.filteri (fun i _ -> i < k) ps

(* --- rendering ---------------------------------------------------------- *)

(* collapsed-stack format (Brendan Gregg flamegraph.pl / speedscope /
   inferno): one "frame;frame;frame <value>" line per stack, value =
   self time in integer microseconds.  Sorted by stack so a fixed
   workload under a fixed clock renders byte-identically. *)
let collapsed prof =
  let b = Buffer.create 1024 in
  List.iter (fun f ->
    Buffer.add_string b (String.concat ";" f.f_stack);
    Buffer.add_char b ' ';
    Buffer.add_string b
      (string_of_int (int_of_float (f.f_self_s *. 1e6 +. 0.5)));
    Buffer.add_char b '\n')
    prof;
  Buffer.contents b

let write_collapsed path prof = Io.write_file path (collapsed prof)

let pp_top ?k fmt prof =
  let ps = top_self ?k prof in
  Format.fprintf fmt "%12s %12s %10s  %s@." "self ms" "total ms" "calls"
    "hot path";
  List.iter (fun p ->
    Format.fprintf fmt "%12.3f %12.3f %10d  %s@." (p.p_self_s *. 1e3)
      (p.p_total_s *. 1e3) p.p_calls p.p_name)
    ps;
  Format.fprintf fmt "%12.3f ms attributed across %d stack(s)@."
    (attributed_s prof *. 1e3)
    (List.length prof)

let counters_json cs =
  if cs = [] then []
  else
    [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) cs)) ]

let pass_json p =
  Json.Obj
    [ ("calls", Json.Int p.p_calls);
      ("total_ms", Json.Float (p.p_total_s *. 1e3));
      ("self_ms", Json.Float (p.p_self_s *. 1e3)) ]

let json ?wall_ms prof =
  let ps =
    List.sort (fun a b -> String.compare a.p_name b.p_name) (passes prof)
  in
  Json.Obj
    ([ ("schema", Json.Str "emsc-compile-profile/1");
       ("attributed_ms", Json.Float (attributed_s prof *. 1e3)) ]
     @ (match wall_ms with
        | Some w -> [ ("wall_ms", Json.Float w) ]
        | None -> [])
     @ [ ("passes", Json.Obj (List.map (fun p -> (p.p_name, pass_json p)) ps));
         ( "stacks",
           Json.List
             (List.map (fun f ->
                Json.Obj
                  ([ ("stack", Json.Str (String.concat ";" f.f_stack));
                     ("calls", Json.Int f.f_calls);
                     ("total_ms", Json.Float (f.f_total_s *. 1e3));
                     ("self_ms", Json.Float (f.f_self_s *. 1e3)) ]
                   @ counters_json f.f_counters))
                prof) ) ])

let pass_timings_json prof =
  let by_total a b =
    match compare b.p_total_s a.p_total_s with
    | 0 -> String.compare a.p_name b.p_name
    | c -> c
  in
  Json.List
    (List.map (fun p ->
       Json.Obj
         ([ ("name", Json.Str p.p_name);
            ("calls", Json.Int p.p_calls);
            ("errors", Json.Int p.p_errors);
            ("total_ms", Json.Float (p.p_total_s *. 1e3)) ]
          @ counters_json p.p_counters))
       (List.sort by_total (passes prof)))

(* --- the span tree ------------------------------------------------------ *)

(* domains finish in nondeterministic order; present roots in start
   order so renders are stable *)
let roots () =
  List.concat_map (fun st -> List.rev st.d_root.o_children) (registered ())
  |> List.stable_sort (fun a b -> compare a.start_s b.start_s)

let chrome_events () =
  let events = ref [] in
  let rec emit n =
    let args =
      n.args @ List.map (fun (k, v) -> (k, Json.Float v)) n.counters
    in
    let ev =
      Json.Obj
        ([ ("name", Json.Str n.name);
           ("cat", Json.Str "emsc");
           ("ph", Json.Str "X");
           ("ts", Json.Float (n.start_s *. 1e6));
           ("dur", Json.Float (n.dur_s *. 1e6));
           ("pid", Json.Int 1);
           ("tid", Json.Int 1) ]
         @ (if args = [] then [] else [ ("args", Json.Obj args) ]))
    in
    events := ev :: !events;
    List.iter emit n.children
  in
  List.iter emit (roots ());
  List.rev !events

(* force-enable from the environment, so an unmodified binary (the
   tier-1 test runner, a CI compile) can run profiled for the overhead
   budget check *)
let () =
  match Sys.getenv_opt "EMSC_PROF" with
  | Some ("" | "0" | "false") | None -> ()
  | Some _ -> enabled_flag := true
