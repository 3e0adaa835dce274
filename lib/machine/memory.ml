open Emsc_arith
open Emsc_ir

type global = {
  g_name : string;
  data : float array;
  g_dims : int array;
  base : int;
  phantom : bool;
}

(* A local buffer is a dense row-major window over the index box its
   writes have touched so far.  The window grows (doubling along the
   dimension that overflowed) when a write lands outside it, and is
   kept, zeroed, by [clear_locals], so a recycled arena view reuses it.
   Cells outside the window and cells never written read as 0.0;
   [written] marks the distinct cells written, counted in [count]. *)
type local = {
  mutable rank : int;  (* -1 until the first write *)
  mutable lo : int array;
  mutable hi : int array;  (* exclusive *)
  mutable cells : float array;
  mutable written : Bytes.t;
  mutable count : int;
}

type t = {
  globals : (string, global) Hashtbl.t;
  locals : (string, local) Hashtbl.t;
}

let eval_extent env (row : Emsc_linalg.Vec.t) params =
  let np = Array.length params in
  let acc = ref row.(np) in
  for k = 0 to np - 1 do
    if not (Zint.is_zero row.(k)) then
      acc := Zint.add !acc (Zint.mul row.(k) (env params.(k)))
  done;
  Zint.to_int_exn !acc

let create_gen ~phantom (p : Prog.t) ~param_env =
  let globals = Hashtbl.create 8 in
  let next_base = ref 0 in
  List.iter (fun (d : Prog.array_decl) ->
    let dims =
      Array.map (fun row -> eval_extent param_env row p.Prog.params) d.Prog.extents
    in
    let total = Array.fold_left ( * ) 1 dims in
    if total < 0 then
      invalid_arg ("Memory.create: negative extent for " ^ d.Prog.array_name);
    Hashtbl.replace globals d.Prog.array_name
      { g_name = d.Prog.array_name;
        data = Array.make (if phantom then 1 else max total 1) 0.0;
        g_dims = dims; base = !next_base; phantom };
    (* pad bases to distinct 4 KB-aligned regions *)
    next_base := !next_base + ((total + 1023) / 1024 * 1024))
    p.Prog.arrays;
  { globals; locals = Hashtbl.create 8 }

let create p ~param_env = create_gen ~phantom:false p ~param_env
let create_phantom p ~param_env = create_gen ~phantom:true p ~param_env

let fresh_local () =
  { rank = -1; lo = [||]; hi = [||]; cells = [||]; written = Bytes.empty;
    count = 0 }

let declare_local m name =
  if not (Hashtbl.mem m.locals name) then
    Hashtbl.replace m.locals name (fresh_local ())

let is_local m name = Hashtbl.mem m.locals name

let find_global m name = Hashtbl.find_opt m.globals name

let entry m name =
  match find_global m name with
  | Some e -> e
  | None -> invalid_arg ("Memory: unknown global array " ^ name)

let rank_mismatch e = invalid_arg ("Memory: rank mismatch on " ^ e.g_name)

let out_of_bounds e i dim k =
  invalid_arg
    (Printf.sprintf "Memory: %s index %d out of bounds [0,%d) at dim %d"
       e.g_name i dim k)

(* Row-major offset of the indices [idx.(0) .. idx.(n - 1)]. *)
let global_offset e idx n =
  let dims = e.g_dims in
  if n <> Array.length dims then rank_mismatch e;
  let flat = ref 0 in
  for k = 0 to n - 1 do
    let i = idx.(k) in
    if i < 0 || i >= dims.(k) then out_of_bounds e i dims.(k) k;
    flat := (!flat * dims.(k)) + i
  done;
  !flat

(* [global_offset] of two indices, checked in the same order with the
   same messages *)
let global_offset2 e i j =
  let dims = e.g_dims in
  if Array.length dims <> 2 then rank_mismatch e;
  let d0 = dims.(0) and d1 = dims.(1) in
  if i < 0 || i >= d0 then out_of_bounds e i d0 0;
  if j < 0 || j >= d1 then out_of_bounds e j d1 1;
  (i * d1) + j

let global_address e idx n = e.base + global_offset e idx n

(* A phantom array ignores the indices of a load or store. *)
let global_load e idx n dst c =
  if e.phantom then dst.(c) <- e.data.(0)
  else dst.(c) <- e.data.(global_offset e idx n)

let global_load2 e i j dst c =
  if e.phantom then dst.(c) <- e.data.(0)
  else dst.(c) <- e.data.(global_offset2 e i j)

let global_store e idx n src c =
  if e.phantom then e.data.(0) <- src.(c)
  else e.data.(global_offset e idx n) <- src.(c)

let global_store2 e i j src c =
  if e.phantom then e.data.(0) <- src.(c)
  else e.data.(global_offset2 e i j) <- src.(c)

let flat_index m name idx =
  global_offset (entry m name) idx (Array.length idx)

let base_address m name = (entry m name).base

let read_global m name idx =
  let e = entry m name in
  if e.phantom then e.data.(0)
  else e.data.(global_offset e idx (Array.length idx))

let write_global m name idx v =
  let e = entry m name in
  if e.phantom then e.data.(0) <- v
  else e.data.(global_offset e idx (Array.length idx)) <- v

let find_local m name = Hashtbl.find_opt m.locals name

let local m name =
  match find_local m name with
  | Some t -> t
  | None -> invalid_arg ("Memory: unknown local buffer " ^ name)

(* Window offset of the indices [idx.(0) .. idx.(n - 1)], or -1 outside
   the window (or for a rank no write has used). *)
let local_offset l idx n =
  if n <> l.rank then -1
  else begin
    let flat = ref 0 and k = ref 0 in
    while !k < n do
      let i = idx.(!k) and lo = l.lo.(!k) and hi = l.hi.(!k) in
      if i < lo || i >= hi then begin
        flat := -1;
        k := n
      end
      else begin
        flat := (!flat * (hi - lo)) + (i - lo);
        incr k
      end
    done;
    !flat
  end

(* [local_offset] of two indices *)
let local_offset2 l i j =
  if l.rank <> 2 then -1
  else begin
    let lo0 = l.lo.(0) and lo1 = l.lo.(1) and hi1 = l.hi.(1) in
    if i < lo0 || i >= l.hi.(0) || j < lo1 || j >= hi1 then -1
    else ((i - lo0) * (hi1 - lo1)) + (j - lo1)
  end

(* A cell never written reads as 0.0. *)
let local_load l idx n dst c =
  let flat = local_offset l idx n in
  if flat < 0 then dst.(c) <- 0.0 else dst.(c) <- l.cells.(flat)

let local_load2 l i j dst c =
  let flat = local_offset2 l i j in
  if flat < 0 then dst.(c) <- 0.0 else dst.(c) <- l.cells.(flat)

(* The largest window a local buffer may grow to, in cells. *)
let max_window = 1 lsl 24

let window_cells lo hi =
  let cells = ref 1 in
  Array.iteri (fun k l ->
    let e = hi.(k) - l in
    if e <= 0 || e > max_window || !cells > max_window / e then
      cells := max_window + 1
    else cells := !cells * e)
    lo;
  !cells

(* Re-lay the window over [lo, hi), moving every cell. *)
let relayout l lo hi =
  let cells = window_cells lo hi in
  if cells > max_window then
    invalid_arg
      (Printf.sprintf "Memory: local buffer window exceeds %d cells"
         max_window);
  let n = l.rank in
  let data = Array.make cells 0.0 and written = Bytes.make cells '\000' in
  let old_cells = Array.length l.cells in
  let idx = Array.make n 0 in
  for flat = 0 to old_cells - 1 do
    if Bytes.get l.written flat <> '\000' then begin
      let r = ref flat in
      for k = n - 1 downto 0 do
        let e = l.hi.(k) - l.lo.(k) in
        idx.(k) <- l.lo.(k) + (!r mod e);
        r := !r / e
      done;
      let dst = ref 0 in
      for k = 0 to n - 1 do
        dst := (!dst * (hi.(k) - lo.(k))) + (idx.(k) - lo.(k))
      done;
      data.(!dst) <- l.cells.(flat);
      Bytes.set written !dst '\001'
    end
  done;
  l.lo <- lo;
  l.hi <- hi;
  l.cells <- data;
  l.written <- written

(* Grow the window to cover the indices [idx.(0) .. idx.(n - 1)]: each
   dimension that must grow at least doubles, unless that would pass
   [max_window], when it grows to the exact box. *)
let grow l idx n =
  if l.rank = -1 then begin
    l.rank <- n;
    l.lo <- Array.init n (fun k -> idx.(k));
    l.hi <- Array.init n (fun k -> idx.(k) + 1);
    l.cells <- [| 0.0 |];
    l.written <- Bytes.make 1 '\000'
  end
  else if n <> l.rank then
    invalid_arg
      (Printf.sprintf "Memory: local buffer of rank %d written with %d indices"
         l.rank n)
  else begin
    let exact_lo = Array.init n (fun k -> min l.lo.(k) idx.(k))
    and exact_hi = Array.init n (fun k -> max l.hi.(k) (idx.(k) + 1)) in
    let lo =
      Array.init n (fun k ->
        if exact_lo.(k) < l.lo.(k) then
          min exact_lo.(k) (l.lo.(k) - (l.hi.(k) - l.lo.(k)))
        else l.lo.(k))
    and hi =
      Array.init n (fun k ->
        if exact_hi.(k) > l.hi.(k) then
          max exact_hi.(k) (l.hi.(k) + (l.hi.(k) - l.lo.(k)))
        else l.hi.(k))
    in
    if window_cells lo hi <= max_window then relayout l lo hi
    else relayout l exact_lo exact_hi
  end

let[@inline] set_cell l flat v =
  if Bytes.unsafe_get l.written flat = '\000' then begin
    Bytes.unsafe_set l.written flat '\001';
    l.count <- l.count + 1
  end;
  l.cells.(flat) <- v

let rec local_store l idx n src c =
  let flat = local_offset l idx n in
  if flat < 0 then begin
    grow l idx n;
    local_store l idx n src c
  end
  else set_cell l flat src.(c)

(* outside the window, the general path grows it, from the indices
   written into [idx] *)
let local_store2 l idx i j src c =
  let flat = local_offset2 l i j in
  if flat < 0 then begin
    idx.(0) <- i;
    idx.(1) <- j;
    local_store l idx 2 src c
  end
  else set_cell l flat src.(c)

let read_local m name idx =
  let l = local m name in
  let flat = local_offset l idx (Array.length idx) in
  if flat < 0 then 0.0 else l.cells.(flat)

let write_local m name idx v =
  local_store (local m name) idx (Array.length idx) [| v |] 0

let global_data m name = (entry m name).data
let dims m name = (entry m name).g_dims

let fork_view m =
  (* Globals are shared physically: the table itself is never mutated
     after creation, only the [data] arrays inside the entries, so
     concurrent views may read and write disjoint cells safely.  Locals
     are private to the view: same declared names, fresh storage. *)
  let locals = Hashtbl.create (max 8 (Hashtbl.length m.locals)) in
  Hashtbl.iter (fun name _ -> Hashtbl.replace locals name (fresh_local ()))
    m.locals;
  { globals = m.globals; locals }

let clear_locals m =
  Hashtbl.iter (fun _ l ->
    if l.count > 0 then begin
      Array.fill l.cells 0 (Array.length l.cells) 0.0;
      Bytes.fill l.written 0 (Bytes.length l.written) '\000';
      l.count <- 0
    end)
    m.locals

let local_words m = Hashtbl.fold (fun _ l acc -> acc + l.count) m.locals 0

let local_occupancy m =
  Hashtbl.fold (fun name l acc -> (name, l.count) :: acc) m.locals []
  |> List.sort compare

let fill m name f =
  let e = entry m name in
  let n = Array.length e.g_dims in
  let idx = Array.make n 0 in
  let rec go k flat =
    if k = n then e.data.(flat) <- f idx
    else
      for v = 0 to e.g_dims.(k) - 1 do
        idx.(k) <- v;
        go (k + 1) ((flat * e.g_dims.(k)) + v)
      done
  in
  if Array.fold_left ( * ) 1 e.g_dims > 0 then go 0 0

let arrays_equal ?(eps = 1e-6) a b name =
  let da = global_data a name and db = global_data b name in
  Array.length da = Array.length db
  && begin
    let ok = ref true in
    Array.iteri (fun i v ->
      if Float.abs (v -. db.(i)) > eps *. (1.0 +. Float.abs v) then ok := false)
      da;
    !ok
  end
