(* Clocks, statistics and the result record every workload fills. *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (** checks that belong to no single op *)
  e2e : metric list;  (** over the untraced ops and set-ups *)
  traced_e2e : metric list;  (** over the traced ones; empty unless traced *)
  layers : metric list;  (** empty unless the run was traced *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let rank_quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = rank_quantile (sorted_array l) 0.5

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* The tail percentiles the benchmark may report.  The ladder is coarse
   (a factor of ten in sample count between rungs) so that the rung a
   workload lands on does not flip between runs of similar length. *)
let tail_ladder = [ 0.5; 0.9; 0.99; 0.999 ]

(* Samples strictly beyond the nearest-rank [q]-quantile. *)
let beyond n q = n - int_of_float (ceil (q *. float_of_int n))

(* The highest ladder percentile with at least ten samples beyond it:
   (percentile, value, samples beyond). *)
let tail l =
  let a = sorted_array l in
  let n = Array.length a in
  let q =
    List.fold_left (fun acc q -> if beyond n q >= 10 then q else acc) 0.5
      tail_ladder
  in
  (q, rank_quantile a q, beyond n q)

let tail_note ~n l =
  let q, v, b = tail l in
  Printf.sprintf "op_ms_tail = p%g of %d ops (%d beyond) = %.3f ms"
    (q *. 100.0) n b v

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec loop () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> loop ()
    | exception End_of_file -> 0.0
  in
  loop ()

(* The end-to-end metrics shared by every workload.  [op_ms] holds the
   latencies of verified ops only; [wall_s] is the timed phase;
   [peak_rss_mb] is read when the timed phase ends, before
   verification allocates. *)
let e2e ~setup_s ~op_ms ~wall_s ~peak_rss_mb ~code_size ~moved_words =
  let verified = List.length op_ms in
  let _, tail_v, _ = tail op_ms in
  [ metric "setup_s" "s" setup_s;
    metric "op_ms" "ms" (median op_ms);
    metric "op_ms_tail" "ms" tail_v;
    metric "ops_per_s" "1/s"
      (if wall_s > 0.0 then float_of_int verified /. wall_s else 0.0);
    metric "peak_rss_mb" "MiB" peak_rss_mb;
    metric "code_size" "count" (float_of_int code_size);
    metric "moved_words" "words" moved_words ]

(* The directory the benchmark writes its scratch files to, inside the
   directory it is run from. *)
let scratch_dir () =
  let d = ".perfbench" in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
