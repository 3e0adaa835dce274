type labels = Prof.labels

type value = Prof.value =
  | Counter of float
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (int * int) list }

type sample = {
  m_name : string;
  m_labels : labels;
  m_value : value;
}

type snapshot = {
  at_s : float;
  samples : sample list;
}

let enable = Prof.enable
let disable = Prof.disable
let reset = Prof.reset

let compare_sample a b =
  match String.compare a.m_name b.m_name with
  | 0 -> compare a.m_labels b.m_labels
  | c -> c

let snapshot () =
  let samples =
    List.map (fun (name, labels, v) ->
      { m_name = name; m_labels = labels; m_value = v })
      (Prof.values ())
    |> List.sort compare_sample
  in
  { at_s = Prof.now (); samples }

let sub_buckets later earlier =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, n) -> Hashtbl.replace tbl k n) later;
  List.iter (fun (k, n) ->
    let cur = try Hashtbl.find tbl k with Not_found -> 0 in
    Hashtbl.replace tbl k (max 0 (cur - n)))
    earlier;
  Hashtbl.fold (fun k n acc -> if n > 0 then (k, n) :: acc else acc) tbl []
  |> List.sort compare

let diff earlier later =
  let earlier_tbl = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace earlier_tbl (s.m_name, s.m_labels) s)
    earlier.samples;
  let samples =
    List.map (fun s ->
      match Hashtbl.find_opt earlier_tbl (s.m_name, s.m_labels) with
      | None -> s
      | Some e ->
        let value =
          match s.m_value, e.m_value with
          | Counter a, Counter b -> Counter (Float.max 0.0 (a -. b))
          | Histogram h, Histogram g ->
            Histogram
              { count = max 0 (h.count - g.count);
                sum = Float.max 0.0 (h.sum -. g.sum);
                buckets = sub_buckets h.buckets g.buckets }
          | v, _ -> v
        in
        { s with m_value = value })
      later.samples
  in
  { at_s = later.at_s; samples }

let find ?(labels = []) snap name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  List.find_map (fun s ->
    if s.m_name = name && s.m_labels = labels then Some s.m_value else None)
    snap.samples

let counter_value ?labels snap name =
  match find ?labels snap name with Some (Counter v) -> v | _ -> 0.0

(* Bucket-interpolated quantiles over the log2 histogram.  Bucket k
   spans (2^(k-1), 2^k] (k = 0 spans (0, 1]; the underflow bucket is
   exactly 0), and the estimate interpolates linearly inside the
   bucket that crosses the target rank — coarse above, but monotone,
   and honest about the histogram's resolution. *)
let bucket_bounds k =
  if k = min_int then (0.0, 0.0)
  else if k = 0 then (0.0, 1.0)
  else (Float.pow 2.0 (float_of_int (k - 1)), Float.pow 2.0 (float_of_int k))

let quantile v q =
  match v with
  | Histogram { count; buckets; _ } when count > 0 && buckets <> [] ->
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int count in
    let rec go cum = function
      | [] -> None
      | (k, n) :: rest ->
        let cum' = cum +. float_of_int n in
        if cum' >= target || rest = [] then begin
          let lo, hi = bucket_bounds k in
          let frac =
            if n = 0 then 1.0
            else Float.max 0.0 (Float.min 1.0 ((target -. cum) /. float_of_int n))
          in
          Some (lo +. ((hi -. lo) *. frac))
        end
        else go cum' rest
    in
    go 0.0 buckets
  | _ -> None

(* --- rendering --------------------------------------------------------- *)

let bucket_label k = if k = min_int then "le0" else string_of_int k

let value_fields = function
  | Counter v -> [ ("type", Json.Str "counter"); ("value", Json.Float v) ]
  | Gauge v -> [ ("type", Json.Str "gauge"); ("value", Json.Float v) ]
  | Histogram { count; sum; buckets } as h ->
    let quantiles =
      if count = 0 then []
      else
        List.filter_map (fun (label, q) ->
          match quantile h q with
          | Some v -> Some (label, Json.Float v)
          | None -> None)
          [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]
    in
    [ ("type", Json.Str "histogram");
      ("count", Json.Int count);
      ("sum", Json.Float sum) ]
    @ quantiles
    @ [ ( "buckets",
          Json.Obj
            (List.map (fun (k, n) -> (bucket_label k, Json.Int n)) buckets) ) ]

let snapshot_json snap =
  Json.Obj
    [ ("at_s", Json.Float snap.at_s);
      ( "metrics",
        Json.List
          (List.map (fun s ->
             Json.Obj
               (("name", Json.Str s.m_name)
                :: (if s.m_labels = [] then []
                    else
                      [ ( "labels",
                          Json.Obj
                            (List.map (fun (k, v) -> (k, Json.Str v))
                               s.m_labels) ) ])
                @ value_fields s.m_value))
             snap.samples) ) ]
