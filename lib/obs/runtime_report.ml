type domain_stat = {
  d_name : string;
  d_busy_s : float;
  d_dma_wait_s : float;
  d_idle_s : float;
  d_blocks : int;
}

type occupancy_sample = { o_t : float; o_words : int; o_arenas : int }

type t = {
  window_s : float;
  domains : domain_stat list;
  compute_busy_s : float;
  dma_busy_s : float;
  dma_words : float;
  overlap_s : float;
  overlap_fraction : float;
  occupancy : occupancy_sample list;
  occupancy_peak_words : int;
  occupancy_peak_arenas : int;
  critical_path_s : float;
  dropped_events : int;
}

(* total length of the union of [(t0, t1)] intervals: sort by start,
   sweep, merge overlaps *)
let union_length intervals =
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.filter (fun (a, b) -> b > a) intervals)
  in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (lo, hi) -> acc +. (hi -. lo))
    | (a, b) :: rest ->
      (match cur with
       | None -> go acc (Some (a, b)) rest
       | Some (lo, hi) ->
         if a <= hi then go acc (Some (lo, max hi b)) rest
         else go (acc +. (hi -. lo)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

(* |A ∩ B| = |A| + |B| − |A ∪ B| *)
let intersection_length xs ys =
  max 0.0 (union_length xs +. union_length ys -. union_length (xs @ ys))

let build (tracks : Events.track list) =
  let all_events = List.concat_map (fun t -> t.Events.events) tracks in
  if all_events = [] then None
  else begin
    let t_min =
      List.fold_left (fun a e -> min a e.Events.t0) infinity all_events
    and t_max =
      List.fold_left (fun a e -> max a e.Events.t1) neg_infinity all_events
    in
    let window_s = max 0.0 (t_max -. t_min) in
    let dur e = max 0.0 (e.Events.t1 -. e.Events.t0) in
    let domains =
      List.filter_map
        (fun tr ->
           if tr.Events.t_kind <> Events.Exec_track then None
           else begin
             let busy = ref 0.0 and wait = ref 0.0 in
             let blocks = ref 0 in
             List.iter
               (fun e ->
                  match e.Events.data with
                  | Events.Block _ ->
                    busy := !busy +. dur e;
                    incr blocks
                  | Events.Dma_wait _ -> wait := !wait +. dur e
                  | _ -> ())
               tr.Events.events;
             Some
               { d_name = tr.Events.t_name;
                 d_busy_s = !busy;
                 d_dma_wait_s = !wait;
                 d_idle_s = max 0.0 (window_s -. !busy -. !wait);
                 d_blocks = !blocks }
           end)
        tracks
    in
    let compute_ivals =
      List.concat_map
        (fun tr ->
           if tr.Events.t_kind <> Events.Exec_track then []
           else
             List.filter_map
               (fun e ->
                  match e.Events.data with
                  | Events.Block _ -> Some (e.Events.t0, e.Events.t1)
                  | _ -> None)
               tr.Events.events)
        tracks
    in
    let dma_ivals = ref [] and dma_words = ref 0.0 in
    List.iter
      (fun tr ->
         List.iter
           (fun e ->
              match e.Events.data with
              | Events.Dma_transfer { words; _ } ->
                dma_ivals := (e.Events.t0, e.Events.t1) :: !dma_ivals;
                dma_words := !dma_words +. words
              | _ -> ())
           tr.Events.events)
      tracks;
    let compute_busy_s = union_length compute_ivals in
    let dma_busy_s = union_length !dma_ivals in
    let overlap_s = intersection_length compute_ivals !dma_ivals in
    let occupancy =
      List.concat_map
        (fun tr ->
           List.filter_map
             (fun e ->
                match e.Events.data with
                | Events.Occupancy { words; arenas } ->
                  Some { o_t = e.Events.t0; o_words = words;
                         o_arenas = arenas }
                | _ -> None)
             tr.Events.events)
        tracks
      |> List.stable_sort (fun a b -> compare a.o_t b.o_t)
    in
    let occupancy_peak_words =
      List.fold_left (fun a s -> max a s.o_words) 0 occupancy
    and occupancy_peak_arenas =
      List.fold_left (fun a s -> max a s.o_arenas) 0 occupancy
    in
    (* per-(launch, block) event envelope; launches are separated by a
       global barrier, so the run's critical path is the sum over
       launches of the longest block envelope *)
    let envelopes : (int * int, float * float) Hashtbl.t =
      Hashtbl.create 64
    in
    let touch launch block e =
      let lo, hi =
        match Hashtbl.find_opt envelopes (launch, block) with
        | Some (lo, hi) -> (min lo e.Events.t0, max hi e.Events.t1)
        | None -> (e.Events.t0, e.Events.t1)
      in
      Hashtbl.replace envelopes (launch, block) (lo, hi)
    in
    List.iter
      (fun e ->
         match e.Events.data with
         | Events.Block { launch; block; _ }
         | Events.Dma_transfer { launch; block; _ }
         | Events.Dma_wait { launch; block } -> touch launch block e
         | _ -> ())
      all_events;
    let per_launch : (int, float) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (launch, _) (lo, hi) ->
         let len = max 0.0 (hi -. lo) in
         let cur =
           match Hashtbl.find_opt per_launch launch with
           | Some v -> v
           | None -> 0.0
         in
         Hashtbl.replace per_launch launch (max cur len))
      envelopes;
    let critical_path_s = Hashtbl.fold (fun _ v a -> a +. v) per_launch 0.0 in
    let dropped_events =
      List.fold_left (fun a tr -> a + tr.Events.dropped) 0 tracks
    in
    Some
      { window_s; domains; compute_busy_s; dma_busy_s;
        dma_words = !dma_words; overlap_s;
        overlap_fraction =
          (if dma_busy_s > 0.0 then overlap_s /. dma_busy_s else 0.0);
        occupancy; occupancy_peak_words; occupancy_peak_arenas;
        critical_path_s; dropped_events }
  end

let ms s = Json.Float (s *. 1e3)

let to_json r =
  Json.Obj
    [ ("window_ms", ms r.window_s);
      ( "domains",
        Json.List
          (List.map
             (fun d ->
                Json.Obj
                  [ ("name", Json.Str d.d_name);
                    ("busy_ms", ms d.d_busy_s);
                    ("dma_wait_ms", ms d.d_dma_wait_s);
                    ("idle_ms", ms d.d_idle_s);
                    ("blocks", Json.Int d.d_blocks) ])
             r.domains) );
      ("compute_busy_ms", ms r.compute_busy_s);
      ("dma_busy_ms", ms r.dma_busy_s);
      ("dma_words", Json.Float r.dma_words);
      ("overlap_ms", ms r.overlap_s);
      ("overlap_fraction", Json.Float r.overlap_fraction);
      ( "occupancy",
        Json.List
          (List.map
             (fun s ->
                Json.Obj
                  [ ("t_ms", ms s.o_t);
                    ("words", Json.Int s.o_words);
                    ("arenas", Json.Int s.o_arenas) ])
             r.occupancy) );
      ("occupancy_peak_words", Json.Int r.occupancy_peak_words);
      ("occupancy_peak_arenas", Json.Int r.occupancy_peak_arenas);
      ("critical_path_ms", ms r.critical_path_s);
      ("dropped_events", Json.Int r.dropped_events) ]

let pp fmt r =
  Format.fprintf fmt "runtime report (window %.3f ms)@."
    (r.window_s *. 1e3);
  List.iter
    (fun d ->
       Format.fprintf fmt
         "  %-10s busy %8.3f ms  dma-wait %8.3f ms  idle %8.3f ms  \
          blocks %d@."
         d.d_name (d.d_busy_s *. 1e3) (d.d_dma_wait_s *. 1e3)
         (d.d_idle_s *. 1e3) d.d_blocks)
    r.domains;
  Format.fprintf fmt
    "  dma busy %.3f ms (%.0f words)  overlap %.3f ms (%.1f%% of dma)@."
    (r.dma_busy_s *. 1e3) r.dma_words (r.overlap_s *. 1e3)
    (r.overlap_fraction *. 100.0);
  Format.fprintf fmt "  occupancy peak %d words / %d arenas@."
    r.occupancy_peak_words r.occupancy_peak_arenas;
  Format.fprintf fmt "  critical path %.3f ms@." (r.critical_path_s *. 1e3);
  if r.dropped_events > 0 then
    Format.fprintf fmt "  (%d events dropped to ring wraparound)@."
      r.dropped_events
