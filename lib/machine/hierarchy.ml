(* Declarative N-level explicit memory hierarchies.

   A machine is an ordered stack of memory levels, innermost (closest
   to the compute units) first and the unbounded home level (DRAM)
   last.  Every level but the home has a transfer edge to its parent —
   the next level outward — with an aggregate bandwidth, a per-transfer
   latency, and a coalescing width.  The paper's 8800 GTX is the
   2-level special case (scratchpad ⊂ DRAM); arches with more levels
   (registers ⊂ smem ⊂ DRAM, or CPU cache-as-scratchpad stacks) are
   data, not code, and can be loaded from JSON files
   (examples/machines/*.json). *)

module J = Emsc_obs.Json

type edge = {
  e_bw_words_per_cycle : float;  (* aggregate over all units of the level *)
  e_latency : float;             (* cycles per uncovered transfer *)
  e_coalesce_width : int;        (* consecutive words per transaction *)
}

type level = {
  l_name : string;
  l_capacity_bytes : int option;  (* None = unbounded (the home level) *)
  l_word_bytes : int;
  l_access_cycles : float;        (* per word per thread, conflict-free *)
  l_fanout : int;                 (* instances of this level on the chip *)
  l_line_bytes : int option;      (* cache-line geometry, when the level *)
  l_assoc : int option;           (* is simulated as a hardware cache    *)
  l_to_parent : edge option;      (* None only on the home level *)
}

type compute = {
  c_clock_mhz : float;
  c_flop_cycles : float;
  c_simd_per_unit : int;
  c_warp_size : int;
  c_max_blocks_per_unit : int;
  c_sync_cycles : float;
  c_global_sync_base : float;
  c_global_sync_per_block : float;
  c_launch_overhead_cycles : float;
}

type t = {
  h_name : string;
  h_compute : compute;
  h_levels : level list;  (* innermost first, home (DRAM) last *)
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let name h = h.h_name
let levels h = h.h_levels
let compute h = h.h_compute
let num_levels h = List.length h.h_levels

let home h = List.nth h.h_levels (num_levels h - 1)

(* explicitly managed levels: everything but the home *)
let explicit_levels h =
  List.filteri (fun i _ -> i < num_levels h - 1) h.h_levels

(* the staging level: the explicit level adjacent to the home — where
   the paper's plan stages its buffers (smem on the GPU) *)
let staging h = List.nth h.h_levels (num_levels h - 2)

let level_capacity_words (l : level) =
  match l.l_capacity_bytes with
  | Some b -> Some (b / max 1 l.l_word_bytes)
  | None -> None

let staging_capacity_words h =
  match level_capacity_words (staging h) with
  | Some w -> w
  | None -> max_int

(* Double buffering keeps two windows of every staged buffer resident
   (the one being computed on and the one in flight), so the effective
   need at any explicitly managed level is twice the placed footprint.
   Every capacity comparison — Plan, Invariants, Runtime arena, bench —
   must go through this one helper rather than re-deriving the rule. *)
let effective_words ~double_buffer words =
  if double_buffer then 2 * words else words

(* edge i connects level i (inner) to level i+1; edge names read
   "inner<-outer", the direction data is staged *)
let edges h =
  let rec go = function
    | inner :: (outer :: _ as rest) ->
      (match inner.l_to_parent with
       | Some e -> (inner, outer, e) :: go rest
       | None ->
         invalid_arg
           (Printf.sprintf "Hierarchy: level %s has no edge to its parent"
              inner.l_name))
    | _ -> []
  in
  go h.h_levels

let edge_name (inner, outer, _e) = inner.l_name ^ "<-" ^ outer.l_name

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate h =
  let n = List.length h.h_levels in
  if n < 2 then Error "hierarchy needs at least two levels"
  else begin
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    List.iteri (fun i (l : level) ->
      let is_home = i = n - 1 in
      if l.l_name = "" then fail "level has an empty name";
      if l.l_word_bytes <= 0 then
        fail (l.l_name ^ ": word_bytes must be positive");
      if l.l_fanout <= 0 then fail (l.l_name ^ ": fanout must be positive");
      (match l.l_capacity_bytes with
       | Some b when b <= 0 ->
         fail (l.l_name ^ ": capacity_bytes must be positive")
       | _ -> ());
      if is_home then begin
        if l.l_to_parent <> None then
          fail (l.l_name ^ ": the home level cannot have a parent edge");
        if l.l_capacity_bytes <> None then
          fail
            (l.l_name
           ^ ": the home level is unbounded (capacity_bytes must be null)")
      end
      else begin
        (match l.l_to_parent with
         | None -> fail (l.l_name ^ ": inner level needs a parent edge")
         | Some e ->
           if e.e_bw_words_per_cycle <= 0.0 then
             fail (l.l_name ^ ": edge bandwidth must be positive");
           if e.e_coalesce_width <= 0 then
             fail (l.l_name ^ ": edge coalesce_width must be positive"));
        if l.l_capacity_bytes = None then
          fail (l.l_name ^ ": inner level needs a capacity")
      end)
      h.h_levels;
    let names = List.map (fun l -> l.l_name) h.h_levels in
    if List.length (List.sort_uniq compare names) <> n then
      fail "level names must be distinct";
    match !err with Some msg -> Error msg | None -> Ok h
  end

let ms_of_cycles h cycles = cycles /. (h.h_compute.c_clock_mhz *. 1000.0)

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

(* GeForce 8800 GTX, the paper's target: 16 multiprocessors (8 SIMD
   lanes each, warp size 32) at a 1350 MHz shader clock, with 16 KB of
   scratchpad each over 86.4 GB/s DRAM (16 words per cycle) and a
   ~400-600 cycle global latency.  Timing constants are first-order
   calibrations, not cycle-accurate silicon. *)
let gtx8800 =
  { h_name = "gtx8800";
    h_compute =
      { c_clock_mhz = 1350.0;
        c_flop_cycles = 1.0;
        c_simd_per_unit = 8;
        c_warp_size = 32;
        c_max_blocks_per_unit = 8;
        c_sync_cycles = 8.0;
        c_global_sync_base = 4000.0;
        c_global_sync_per_block = 120.0;
        c_launch_overhead_cycles = 7000.0 };
    h_levels =
      [ { l_name = "smem";
          l_capacity_bytes = Some 16384;
          l_word_bytes = 4;
          (* effective cycles per scratchpad access, including the
             address arithmetic real kernels spend per access *)
          l_access_cycles = 3.0;
          l_fanout = 16;
          l_line_bytes = None;
          l_assoc = None;
          l_to_parent =
            Some
              { e_bw_words_per_cycle = 16.0;
                e_latency = 450.0;
                e_coalesce_width = 16 } };
        { l_name = "dram";
          l_capacity_bytes = None;
          l_word_bytes = 4;
          l_access_cycles = 450.0;
          l_fanout = 1;
          l_line_bytes = None;
          l_assoc = None;
          l_to_parent = None } ] }

(* The same chip with the per-multiprocessor register file modelled as
   an explicit innermost level: a per-block window of the 8192-register
   file (first-order: half of it, 16 KB, is placeable), fed from smem
   over a wide low-latency on-chip edge.  The staging level (smem) and
   its DRAM edge are identical to [gtx8800], so top-edge timing does
   not move; what changes is where small buffers may live and which
   edge their traffic crosses. *)
let gtx8800_3level =
  { h_name = "gtx8800_3level";
    h_compute = gtx8800.h_compute;
    h_levels =
      [ { l_name = "regs";
          l_capacity_bytes = Some 8192;
          l_word_bytes = 4;
          l_access_cycles = 1.0;
          l_fanout = 16;
          l_line_bytes = None;
          l_assoc = None;
          l_to_parent =
            Some
              { e_bw_words_per_cycle = 256.0;
                e_latency = 24.0;
                e_coalesce_width = 16 } };
        { l_name = "smem";
          l_capacity_bytes = Some 16384;
          l_word_bytes = 4;
          l_access_cycles = 3.0;
          l_fanout = 16;
          l_line_bytes = None;
          l_assoc = None;
          l_to_parent =
            Some
              { e_bw_words_per_cycle = 16.0;
                e_latency = 450.0;
                e_coalesce_width = 16 } };
        { l_name = "dram";
          l_capacity_bytes = None;
          l_word_bytes = 4;
          l_access_cycles = 450.0;
          l_fanout = 1;
          l_line_bytes = None;
          l_assoc = None;
          l_to_parent = None } ] }

(* Intel Core2 Duo host of the paper's testbed, with its caches treated
   as explicitly managed scratchpads for planning and as set-
   associative LRU caches for the baseline simulation (the line/assoc
   geometry drives [Cache.Sim]).  Access cycles per level reproduce the
   legacy [cpu_total_ms] constants: L1 2.5, L2 18, memory 165 cycles at
   2.13 GHz. *)
let core2duo_cache_as_scratchpad =
  { h_name = "core2duo_cache_as_scratchpad";
    h_compute =
      { c_clock_mhz = 2130.0;
        c_flop_cycles = 2.5;
        c_simd_per_unit = 1;
        c_warp_size = 1;
        c_max_blocks_per_unit = 1;
        c_sync_cycles = 0.0;
        c_global_sync_base = 0.0;
        c_global_sync_per_block = 0.0;
        c_launch_overhead_cycles = 0.0 };
    h_levels =
      [ { l_name = "l1";
          l_capacity_bytes = Some 32768;
          l_word_bytes = 4;
          l_access_cycles = 2.5;
          l_fanout = 1;
          l_line_bytes = Some 64;
          l_assoc = Some 8;
          l_to_parent =
            Some
              { e_bw_words_per_cycle = 8.0;
                e_latency = 18.0;
                e_coalesce_width = 16 } };
        { l_name = "l2";
          l_capacity_bytes = Some 2097152;
          l_word_bytes = 4;
          l_access_cycles = 18.0;
          l_fanout = 1;
          l_line_bytes = Some 64;
          l_assoc = Some 8;
          l_to_parent =
            Some
              { e_bw_words_per_cycle = 2.0;
                e_latency = 165.0;
                e_coalesce_width = 16 } };
        { l_name = "mem";
          l_capacity_bytes = None;
          l_word_bytes = 4;
          l_access_cycles = 165.0;
          l_fanout = 1;
          l_line_bytes = None;
          l_assoc = None;
          l_to_parent = None } ] }

let builtins =
  [ ("gtx8800", gtx8800);
    ("gtx8800_3level", gtx8800_3level);
    ("core2duo_cache_as_scratchpad", core2duo_cache_as_scratchpad) ]

let find_builtin name = List.assoc_opt name builtins

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let edge_json e =
  J.Obj
    [ ("bw_words_per_cycle", J.Float e.e_bw_words_per_cycle);
      ("latency", J.Float e.e_latency);
      ("coalesce_width", J.Int e.e_coalesce_width) ]

let opt_int = function Some i -> J.Int i | None -> J.Null

let level_json l =
  J.Obj
    ([ ("name", J.Str l.l_name);
       ("capacity_bytes", opt_int l.l_capacity_bytes);
       ("word_bytes", J.Int l.l_word_bytes);
       ("access_cycles", J.Float l.l_access_cycles);
       ("fanout", J.Int l.l_fanout) ]
     @ (match l.l_line_bytes, l.l_assoc with
        | None, None -> []
        | lb, a -> [ ("line_bytes", opt_int lb); ("assoc", opt_int a) ])
     @
     match l.l_to_parent with
     | Some e -> [ ("to_parent", edge_json e) ]
     | None -> [])

let compute_json c =
  J.Obj
    [ ("clock_mhz", J.Float c.c_clock_mhz);
      ("flop_cycles", J.Float c.c_flop_cycles);
      ("simd_per_unit", J.Int c.c_simd_per_unit);
      ("warp_size", J.Int c.c_warp_size);
      ("max_blocks_per_unit", J.Int c.c_max_blocks_per_unit);
      ("sync_cycles", J.Float c.c_sync_cycles);
      ("global_sync_base", J.Float c.c_global_sync_base);
      ("global_sync_per_block", J.Float c.c_global_sync_per_block);
      ("launch_overhead_cycles", J.Float c.c_launch_overhead_cycles) ]

let to_json h =
  J.Obj
    [ ("schema", J.Str "emsc-machine/1");
      ("name", J.Str h.h_name);
      ("compute", compute_json h.h_compute);
      ("levels", J.List (List.map level_json h.h_levels)) ]

(* stable content digest over the serialized machine: two hierarchies
   with the same name but different capacities digest differently, so
   cache keys built from this cannot serve a plan computed for a
   different machine *)
let digest h = Digest.to_hex (Digest.string (J.to_string (to_json h)))

(* -- parsing ------------------------------------------------------- *)

let ( let* ) = Result.bind

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name j = J.member name j

let as_float what = function
  | J.Float f -> Ok f
  | J.Int i -> Ok (float_of_int i)
  | _ -> Error (what ^ ": expected a number")

let as_int what = function
  | J.Int i -> Ok i
  | _ -> Error (what ^ ": expected an integer")

let as_str what = function
  | J.Str s -> Ok s
  | _ -> Error (what ^ ": expected a string")

let opt_int_field what name j =
  match opt_field name j with
  | None | Some J.Null -> Ok None
  | Some v ->
    let* i = as_int (what ^ "." ^ name) v in
    Ok (Some i)

let float_field what name j =
  let* v = field name j in
  as_float (what ^ "." ^ name) v

let int_field what name j =
  let* v = field name j in
  as_int (what ^ "." ^ name) v

let edge_of_json what j =
  let* bw = float_field what "bw_words_per_cycle" j in
  let* lat = float_field what "latency" j in
  let* cw = int_field what "coalesce_width" j in
  Ok { e_bw_words_per_cycle = bw; e_latency = lat; e_coalesce_width = cw }

let level_of_json j =
  let* name_v = field "name" j in
  let* name = as_str "level.name" name_v in
  let* capacity = opt_int_field name "capacity_bytes" j in
  let* word_bytes = int_field name "word_bytes" j in
  let* access = float_field name "access_cycles" j in
  let* fanout =
    match opt_field "fanout" j with
    | None -> Ok 1
    | Some v -> as_int (name ^ ".fanout") v
  in
  let* line_bytes = opt_int_field name "line_bytes" j in
  let* assoc = opt_int_field name "assoc" j in
  let* edge =
    match opt_field "to_parent" j with
    | None | Some J.Null -> Ok None
    | Some e ->
      let* e = edge_of_json (name ^ ".to_parent") e in
      Ok (Some e)
  in
  Ok
    { l_name = name; l_capacity_bytes = capacity; l_word_bytes = word_bytes;
      l_access_cycles = access; l_fanout = fanout; l_line_bytes = line_bytes;
      l_assoc = assoc; l_to_parent = edge }

let compute_of_json j =
  let w = "compute" in
  let* clock = float_field w "clock_mhz" j in
  let* flop = float_field w "flop_cycles" j in
  let* simd = int_field w "simd_per_unit" j in
  let* warp = int_field w "warp_size" j in
  let* maxb = int_field w "max_blocks_per_unit" j in
  let* sync = float_field w "sync_cycles" j in
  let* gsb = float_field w "global_sync_base" j in
  let* gspb = float_field w "global_sync_per_block" j in
  let* launch = float_field w "launch_overhead_cycles" j in
  Ok
    { c_clock_mhz = clock; c_flop_cycles = flop; c_simd_per_unit = simd;
      c_warp_size = warp; c_max_blocks_per_unit = maxb;
      c_sync_cycles = sync; c_global_sync_base = gsb;
      c_global_sync_per_block = gspb; c_launch_overhead_cycles = launch }

let of_json j =
  let* name_v = field "name" j in
  let* name = as_str "name" name_v in
  let* compute_v = field "compute" j in
  let* compute = compute_of_json compute_v in
  let* levels_v = field "levels" j in
  let* levels =
    match levels_v with
    | J.List ls ->
      List.fold_left
        (fun acc l ->
          let* acc = acc in
          let* l = level_of_json l in
          Ok (l :: acc))
        (Ok []) ls
      |> Result.map List.rev
    | _ -> Error "levels: expected a list"
  in
  validate { h_name = name; h_compute = compute; h_levels = levels }

let of_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text ->
    (match J.of_string text with
     | Error msg -> Error (path ^ ": " ^ msg)
     | Ok j ->
       (match of_json j with
        | Error msg -> Error (path ^ ": " ^ msg)
        | Ok h -> Ok h))

(* [load spec] resolves a machine: a built-in name, else a JSON file *)
let load spec =
  match find_builtin spec with
  | Some h -> Ok h
  | None ->
    if Sys.file_exists spec then of_file spec
    else
      Error
        (Printf.sprintf
           "unknown machine %S (built-ins: %s; or give an arch JSON file)"
           spec
           (String.concat ", " (List.map fst builtins)))
