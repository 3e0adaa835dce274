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
}

(* --- reading the lanes' spans ------------------------------------------ *)

let int_arg key (n : Prof.node) =
  match List.assoc_opt key n.Prof.args with
  | Some (Json.Int i) -> Some i
  | _ -> None

(* a lane job's root span and the track its arg names: worker lanes
   first, then DMA lanes, each by index *)
let lane_of (n : Prof.node) =
  match n.Prof.name with
  | "runtime.worker" ->
    Option.map (fun i -> (0, i, "worker")) (int_arg "worker" n)
  | "runtime.dma" -> Option.map (fun i -> (1, i, "dma")) (int_arg "channel" n)
  | _ -> None

(* the lane tracks among [roots]: (name, root spans in start order) *)
let lane_tracks roots =
  let lanes =
    List.filter_map (fun n -> Option.map (fun k -> (k, n)) (lane_of n)) roots
  in
  List.sort_uniq compare (List.map fst lanes)
  |> List.map (fun ((_, i, kind) as k) ->
       ( kind ^ string_of_int i,
         List.filter_map (fun (k', n) -> if k' = k then Some n else None)
           lanes ))

let is_busy name = name = "block" || name = "compute"
let is_dma name = name = "dma-in" || name = "dma-out"

let timeline name =
  is_busy name || is_dma name || name = "dma-wait" || name = "arena-wait"
  || name = "occupancy"

(* every timeline span under a lane's root spans, with its track name:
   occupancy samples go to the one "arena" track *)
let timeline_spans (track, roots) =
  let rec walk acc (n : Prof.node) =
    let acc =
      if n.Prof.name = "occupancy" then ("arena", n) :: acc
      else if timeline n.Prof.name then (track, n) :: acc
      else acc
    in
    List.fold_left walk acc n.Prof.children
  in
  List.rev
    (List.fold_left
       (fun acc (r : Prof.node) -> List.fold_left walk acc r.Prof.children)
       [] roots)

(* --- analysis ----------------------------------------------------------- *)

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

let t0 (n : Prof.node) = n.Prof.start_s
let t1 (n : Prof.node) = n.Prof.start_s +. n.Prof.dur_s
let dur n = max 0.0 (t1 n -. t0 n)
let interval n = (t0 n, t1 n)

let build roots =
  let tracks = lane_tracks roots in
  let spans = List.concat_map timeline_spans tracks in
  if spans = [] then None
  else begin
    let nodes = List.map snd spans in
    let named p = List.filter (fun (n : Prof.node) -> p n.Prof.name) nodes in
    let t_min = List.fold_left (fun a n -> min a (t0 n)) infinity nodes
    and t_max = List.fold_left (fun a n -> max a (t1 n)) neg_infinity nodes in
    let window_s = max 0.0 (t_max -. t_min) in
    let domains =
      List.filter_map
        (fun (track, _) ->
           if not (String.starts_with ~prefix:"worker" track) then None
           else begin
             let busy = ref 0.0 and wait = ref 0.0 and blocks = ref 0 in
             List.iter
               (fun (tr, (n : Prof.node)) ->
                  if tr = track then
                    if is_busy n.Prof.name then begin
                      busy := !busy +. dur n;
                      incr blocks
                    end
                    else if n.Prof.name = "dma-wait" then
                      wait := !wait +. dur n)
               spans;
             Some
               { d_name = track;
                 d_busy_s = !busy;
                 d_dma_wait_s = !wait;
                 d_idle_s = max 0.0 (window_s -. !busy -. !wait);
                 d_blocks = !blocks }
           end)
        tracks
    in
    let compute_ivals = List.map interval (named is_busy) in
    let dma = named is_dma in
    let dma_ivals = List.map interval dma in
    let dma_words =
      List.fold_left
        (fun a (n : Prof.node) ->
           a
           +. Option.value ~default:0.0
                (List.assoc_opt "words" n.Prof.counters))
        0.0 dma
    in
    let compute_busy_s = union_length compute_ivals in
    let dma_busy_s = union_length dma_ivals in
    let overlap_s = intersection_length compute_ivals dma_ivals in
    let occupancy =
      List.map
        (fun n ->
           let arg k = Option.value ~default:0 (int_arg k n) in
           { o_t = t0 n; o_words = arg "words"; o_arenas = arg "arenas" })
        (named (String.equal "occupancy"))
      |> List.stable_sort (fun a b -> compare a.o_t b.o_t)
    in
    let occupancy_peak_words =
      List.fold_left (fun a s -> max a s.o_words) 0 occupancy
    and occupancy_peak_arenas =
      List.fold_left (fun a s -> max a s.o_arenas) 0 occupancy
    in
    (* per-(launch, block) span envelope; launches are separated by a
       global barrier, so the run's critical path is the sum over
       launches of the longest block envelope *)
    let envelopes : (int * int, float * float) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun n ->
         match (int_arg "launch" n, int_arg "block" n) with
         | Some launch, Some block ->
           let lo, hi =
             match Hashtbl.find_opt envelopes (launch, block) with
             | Some (lo, hi) -> (min lo (t0 n), max hi (t1 n))
             | None -> interval n
           in
           Hashtbl.replace envelopes (launch, block) (lo, hi)
         | _ -> ())
      nodes;
    let per_launch : (int, float) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (launch, _) (lo, hi) ->
         let len = max 0.0 (hi -. lo) in
         let cur =
           Option.value ~default:0.0 (Hashtbl.find_opt per_launch launch)
         in
         Hashtbl.replace per_launch launch (max cur len))
      envelopes;
    let critical_path_s = Hashtbl.fold (fun _ v a -> a +. v) per_launch 0.0 in
    Some
      { window_s; domains; compute_busy_s; dma_busy_s; dma_words; overlap_s;
        overlap_fraction =
          (if dma_busy_s > 0.0 then overlap_s /. dma_busy_s else 0.0);
        occupancy; occupancy_peak_words; occupancy_peak_arenas;
        critical_path_s }
  end

(* --- Chrome trace_event rendering -------------------------------------- *)

let runtime_pid = 2

let metadata ~tid kind name =
  Json.Obj
    [ ("name", Json.Str kind);
      ("ph", Json.Str "M");
      ("pid", Json.Int runtime_pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]) ]

(* a lane's spans without the occupancy samples, which the arena track
   shows *)
let rec without_occupancy (n : Prof.node) =
  { n with
    Prof.children =
      List.filter_map
        (fun (c : Prof.node) ->
           if c.Prof.name = "occupancy" then None
           else Some (without_occupancy c))
        n.Prof.children }

let chrome_json () =
  let roots = Prof.roots () in
  let tracks = lane_tracks roots in
  let compile = List.filter (fun n -> lane_of n = None) roots in
  let arena =
    List.concat_map timeline_spans tracks
    |> List.filter_map (fun (track, n) ->
         if track = "arena" then Some n else None)
    |> List.stable_sort (fun a b -> compare (t0 a) (t0 b))
  in
  let tracks =
    List.map (fun (name, ns) -> (name, List.map without_occupancy ns)) tracks
    @ (if arena = [] then [] else [ ("arena", arena) ])
  in
  let runtime =
    if tracks = [] then []
    else
      metadata ~tid:0 "process_name" "emsc runtime"
      :: List.concat
           (List.mapi
              (fun i (name, ns) ->
                 let tid = i + 1 in
                 metadata ~tid "thread_name" name
                 :: Prof.chrome_events ~pid:runtime_pid ~tid ns)
              tracks)
  in
  Json.Obj
    [ ("traceEvents", Json.List (Prof.chrome_events compile @ runtime));
      ("displayTimeUnit", Json.Str "ms") ]

let write_chrome path =
  Io.write_file path (Json.to_string (chrome_json ()) ^ "\n")

(* --- report rendering --------------------------------------------------- *)

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
      ("critical_path_ms", ms r.critical_path_s) ]

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
  Format.fprintf fmt "  critical path %.3f ms@." (r.critical_path_s *. 1e3)
