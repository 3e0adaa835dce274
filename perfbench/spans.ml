(* In-memory spans recorded by the benchmark around its calls into each
   layer.  Nothing is written until [write] at the end of the run, so
   recording costs one list cell per span. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** spans of one op share this id; [-1] in a set-up *)
  name : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref 0

(* Ids keep counting across resets, so spans kept from several phases
   of one run never share an id. *)
let reset () =
  recorded := [];
  stack := []

let set_op op = current_op := op

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Common.now () in
    let finish () =
      let t1 = Common.now () in
      stack := List.tl !stack;
      recorded := { id; parent; op = !current_op; name; t0; t1 } :: !recorded
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* A span whose interval was measured elsewhere (e.g. by the server). *)
let add ~op ~parent name t0 t1 =
  let id = !next_id in
  incr next_id;
  recorded := { id; parent; op; name; t0; t1 } :: !recorded;
  id

let all () = List.rev !recorded

(* Length of the union of intervals. *)
let union_length ivals =
  let sorted = List.sort compare ivals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   covered by its children (clipped to the parent). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1) :: (try Hashtbl.find children s.parent with Not_found -> [])))
    spans;
  List.map
    (fun s ->
      let kids =
        (try Hashtbl.find children s.id with Not_found -> [])
        |> List.filter_map (fun (a, b) ->
             let a = max a s.t0 and b = min b s.t1 in
             if b > a then Some (a, b) else None)
      in
      (s, (s.t1 -. s.t0) -. union_length kids))
    spans

(* Summed self time (ms) per span name. *)
let self_ms_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        ((try Hashtbl.find tbl s.name with Not_found -> 0.0) +. (self *. 1000.0)))
    (self_times spans);
  tbl

let self_ms tbl name = try Hashtbl.find tbl name with Not_found -> 0.0

(* Memory the recorded spans hold, in MiB: all a trace keeps alive
   beyond the untraced run. *)
let retained_mb () =
  float_of_int (Obj.reachable_words (Obj.repr !recorded) * (Sys.word_size / 8))
  /. 1048576.0

(* [setups ~times ~traced ~setup ~discard] runs [times] full set-ups and
   returns the last one's state (the others are torn down by [discard])
   with the durations of the untraced and of the traced set-ups.  In a
   traced run every other set-up, counted across calls, records spans
   around its steps, so the two kinds share the same stretch of time.
   [setup_s] is a median of several set-ups, split by the callers
   between the start of the run and the end of the timed phase: this
   host's speed drifts over seconds, and the median should not rest on
   one stretch of it. *)
let setups_done = ref 0

let setups ~times ~traced ~setup ~discard =
  let rec go k st untraced traced_s =
    if k = 0 then (Option.get st, untraced, traced_s)
    else begin
      Option.iter discard st;
      let tr = traced && !setups_done mod 2 = 1 in
      incr setups_done;
      let was_on = !on in
      on := tr;
      set_op (-1);
      let st', s = Common.timed (fun () -> with_span "setup" setup) in
      on := was_on;
      if tr then go (k - 1) (Some st') untraced (s :: traced_s)
      else go (k - 1) (Some st') (s :: untraced) traced_s
    end
  in
  go times None [] []

(* Chrome trace-event JSON, written once. *)
let write path spans =
  let module J = Emsc_obs.Json in
  let origin = List.fold_left (fun m s -> min m s.t0) infinity spans in
  let event s =
    J.Obj
      [ ("name", J.Str s.name); ("ph", J.Str "X"); ("pid", J.Int 1); ("tid", J.Int 1);
        ("ts", J.Float ((s.t0 -. origin) *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("op", J.Int s.op) ]) ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List (List.map event spans)) ]));
  output_char oc '\n'
