(* Seeded workload inputs.  Every input is a pure function of the
   workload seed, so one seed regenerates byte-identical inputs and the
   program under test only ever sees the generated sources. *)

open Emsc_driver
open Emsc_transform

type tiles = (int option * int option) list
(* per loop dimension: (block tile, mem tile) *)

type kernel = {
  family : string;
  name : string;
  text : string;
  tiles : tiles;
}

let dim (block, mem) = { Tile.block; mem; thread = None }
let spec_of_tiles tiles = Array.of_list (List.map dim tiles)

let matmul ~n ~bt ~mt =
  { family = "matmul";
    name = Printf.sprintf "matmul-n%d-b%d-m%d" n bt mt;
    text =
      Printf.sprintf
        "array A[%d][%d];\narray B[%d][%d];\narray C[%d][%d];\n\
         for (i = 0; i <= %d; i++) {\n\
        \  for (j = 0; j <= %d; j++) {\n\
        \    for (k = 0; k <= %d; k++) {\n\
        \      C[i][j] += A[i][k] * B[k][j];\n\
        \    }\n  }\n}\n"
        n n n n n n (n - 1) (n - 1) (n - 1);
    tiles = [ (Some bt, None); (Some bt, None); (None, Some mt) ] }

(* The sliding-window kernels tile their two space loops at block and
   memory level and leave the window loops whole: two tile-origin
   parameters, which keeps a cold compile within a few hundred
   milliseconds. *)
let space_tiles ~depth ~bt ~mt =
  List.init depth (fun d -> if d < 2 then (Some bt, Some mt) else (None, None))

let conv2d ~n ~kw ~bt ~mt =
  { family = "conv2d";
    name = Printf.sprintf "conv2d-n%d-k%d-b%d-m%d" n kw bt mt;
    text =
      Printf.sprintf
        "array out[%d][%d];\narray img[%d][%d];\narray w[%d][%d];\n\
         for (i = 0; i <= %d; i++) {\n\
        \  for (j = 0; j <= %d; j++) {\n\
        \    for (k = 0; k <= %d; k++) {\n\
        \      for (l = 0; l <= %d; l++) {\n\
        \        out[i][j] += img[i+k][j+l] * w[k][l];\n\
        \      }\n    }\n  }\n}\n"
        n n (n + kw - 1) (n + kw - 1) kw kw (n - 1) (n - 1) (kw - 1) (kw - 1);
    tiles = space_tiles ~depth:4 ~bt ~mt }

(* Time-expanded Jacobi: only the time loop may be tiled rectangularly
   (its dependences (1,-1), (1,0), (1,1) forbid tiling space under
   time), so block and mem tiles both cut [t]. *)
let jacobi1d ~n ~steps ~bt ~mt =
  { family = "jacobi1d";
    name = Printf.sprintf "jacobi1d-n%d-t%d-b%d-m%d" n steps bt mt;
    text =
      Printf.sprintf
        "array a[%d][%d];\n\
         for (t = 0; t <= %d; t++) {\n\
        \  for (i = 1; i <= %d; i++) {\n\
        \    a[t+1][i] = (a[t][i-1] + a[t][i] + a[t][i+1]) / 3;\n\
        \  }\n}\n"
        (steps + 1) n (steps - 1) (n - 2);
    tiles = [ (Some bt, Some mt); (None, None) ] }

let me ~n ~ws ~bt ~mt =
  { family = "me";
    name = Printf.sprintf "me-n%d-w%d-b%d-m%d" n ws bt mt;
    text =
      Printf.sprintf
        "array sad[%d][%d];\narray cur[%d][%d];\narray refb[%d][%d];\n\
         for (i = 0; i <= %d; i++) {\n\
        \  for (j = 0; j <= %d; j++) {\n\
        \    for (k = 0; k <= %d; k++) {\n\
        \      for (l = 0; l <= %d; l++) {\n\
        \        sad[i][j] += abs(cur[i+k][j+l] - refb[i+k][j+l]);\n\
        \      }\n    }\n  }\n}\n"
        n n (n + ws) (n + ws) (n + ws) (n + ws) (n - 1) (n - 1) (ws - 1)
        (ws - 1);
    tiles = space_tiles ~depth:4 ~bt ~mt }

let doitgen ~nr ~np ~bt ~mt =
  { family = "doitgen";
    name = Printf.sprintf "doitgen-r%d-p%d-b%d-m%d" nr np bt mt;
    text =
      Printf.sprintf
        "array sum3[%d][%d][%d];\narray a3[%d][%d][%d];\narray c4[%d][%d];\n\
         for (r = 0; r <= %d; r++) {\n\
        \  for (q = 0; q <= %d; q++) {\n\
        \    for (p = 0; p <= %d; p++) {\n\
        \      for (s = 0; s <= %d; s++) {\n\
        \        sum3[r][q][p] += a3[r][q][s] * c4[s][p];\n\
        \      }\n    }\n  }\n}\n"
        nr nr np nr nr np np np (nr - 1) (nr - 1) (np - 1) (np - 1);
    tiles = space_tiles ~depth:4 ~bt ~mt }

(* Tiled kernels carry their tiles, so the band search is not needed to
   tile them; like the daemon's jobs they skip it. *)
let options_of_kernel k =
  { Options.default with
    Options.arch = `Cell;
    find_band = false;
    tiling = Options.Spec (spec_of_tiles k.tiles) }

let kernel_job k =
  Pipeline.job ~options:(options_of_kernel k)
    (Source.Text { name = k.name; text = k.text })

(* Fixed kernel configurations.  A seed never changes which kernels
   run or how they are tiled: the totals the benchmark reports (code
   size, moved words, solver work) would otherwise move with the seed
   rather than with the code. *)
let kernel_menu =
  [ matmul ~n:16 ~bt:8 ~mt:4; matmul ~n:24 ~bt:8 ~mt:8; matmul ~n:20 ~bt:4 ~mt:4;
    matmul ~n:32 ~bt:8 ~mt:8;
    conv2d ~n:16 ~kw:3 ~bt:8 ~mt:4; conv2d ~n:20 ~kw:3 ~bt:4 ~mt:2;
    conv2d ~n:24 ~kw:3 ~bt:8 ~mt:8; conv2d ~n:12 ~kw:5 ~bt:4 ~mt:4;
    jacobi1d ~n:32 ~steps:8 ~bt:4 ~mt:2; jacobi1d ~n:48 ~steps:12 ~bt:4 ~mt:4;
    jacobi1d ~n:64 ~steps:16 ~bt:8 ~mt:4; jacobi1d ~n:40 ~steps:10 ~bt:8 ~mt:8;
    me ~n:16 ~ws:4 ~bt:8 ~mt:4; me ~n:12 ~ws:3 ~bt:4 ~mt:2; me ~n:24 ~ws:4 ~bt:8 ~mt:8;
    me ~n:20 ~ws:3 ~bt:4 ~mt:4;
    doitgen ~nr:4 ~np:8 ~bt:2 ~mt:1; doitgen ~nr:4 ~np:6 ~bt:4 ~mt:2;
    doitgen ~nr:6 ~np:8 ~bt:2 ~mt:2; doitgen ~nr:6 ~np:6 ~bt:4 ~mt:4 ]

(* --- compile-cold --------------------------------------------------------- *)

(* Generated programs: a fixed corpus of [Emsc_check.Gen] draws, each
   verified at the value of its parameter [n] that the generator chose
   (the array extents are picked to fit it).  The seed only orders the
   op set: compile cost varies widely between generated programs, so
   letting the seed pick them would move the latency distribution, the
   code size and the solver counts with the seed rather than with the
   code. *)
let gen_corpus = 80

let gen_program i = Emsc_check.Gen.generate (Random.State.make [| 0x5eed; i |])

type cold_input =
  | Generated of { name : string; spec : Emsc_check.Gen.t }
  | Kernel of kernel

let cold_job = function
  | Generated { name; spec } ->
    Pipeline.job (Source.Program { name; prog = Emsc_check.Gen.materialize spec })
  | Kernel k -> kernel_job k

let cold_param_env = function
  | Generated { spec; _ } -> Emsc_check.Gen.param_env spec
  | Kernel _ -> Emsc_driver.Runner.no_params

let is_tiled = function Kernel _ -> true | Generated _ -> false

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [a] and [b] merged with [b]'s items spread evenly: every prefix of
   the result holds [a] and [b] in about the proportion of the whole.  A
   timed phase ends part-way through a pass, and the ops of that partial
   pass must not be mostly of one kind. *)
let interleave a b =
  let na = Array.length a and nb = Array.length b in
  let n = na + nb in
  let ia = ref 0 and ib = ref 0 in
  Array.init n (fun p ->
    if (p + 1) * nb / n > !ib then begin
      incr ib;
      b.(!ib - 1)
    end
    else begin
      incr ia;
      a.(!ia - 1)
    end)

(* The op set of one run: the corpus and the kernel menu (20 of 100
   inputs tiled), each in seeded order, the kernels spread evenly among
   the generated programs; and a few warm-up inputs outside it.  With
   80 generated programs the median and p90 ops both fall where the
   latency distribution is dense, so a small shift in speed does not
   move them onto a different input. *)
let compile_cold ~seed =
  let st = Random.State.make [| seed; 1 |] in
  let gens =
    Array.init gen_corpus (fun i ->
      Generated { name = Printf.sprintf "gen%d" i; spec = gen_program i })
  in
  let kernels = Array.of_list (List.map (fun k -> Kernel k) kernel_menu) in
  shuffle st gens;
  shuffle st kernels;
  let warmup =
    [ Generated { name = "warmup-gen0"; spec = gen_program gen_corpus };
      Generated { name = "warmup-gen1"; spec = gen_program (gen_corpus + 1) };
      Kernel (jacobi1d ~n:24 ~steps:6 ~bt:4 ~mt:2);
      Kernel (matmul ~n:10 ~bt:4 ~mt:4) ]
  in
  (interleave gens kernels, warmup)

(* --- serve-mixed ---------------------------------------------------------- *)

(* Hot set: six tiled matmuls of nearby sizes, requested over and
   over.  One request in [cold_every] is a never-seen tiled matmul.  The
   hot texts cost the daemon the same to answer: with texts of unequal
   cost (one per kernel family, say) a hot request's latency would
   depend on which text the other connection's request, queued ahead of
   it, asks for, and that pairing follows the seed. *)
let cold_every = 6

let hot_set = Array.init 6 (fun i -> matmul ~n:(16 + (2 * i)) ~bt:8 ~mt:4)

(* Slot [i] of the request stream: whether it is cold, and which hot
   text it asks for otherwise.  Every [cold_every]-th slot is cold, at a
   seeded phase; the hot slots walk a seeded permutation of the hot set.
   Regular spacing keeps the number of cold requests that meet in the
   daemon's queue, and each hot text's share, the same in every run. *)
let serve_schedule ~seed ~hot =
  let perm = Array.init hot Fun.id in
  shuffle (Random.State.make [| seed; 6 |]) perm;
  let first_cold = (cold_every - (seed mod cold_every)) mod cold_every in
  fun i ->
    let colds_before = if i <= first_cold then 0 else ((i - first_cold - 1) / cold_every) + 1 in
    ((i + seed) mod cold_every = 0, perm.((i - colds_before) mod hot))

(* The [k]-th cold request: a tiled matmul whose size starts at a seeded
   offset and grows by one per request, so no two cold texts of a run
   coincide with each other or the hot set.  A cold compile costs about
   the same whatever the size. *)
let cold_kernel ~seed k = matmul ~n:(40 + (seed mod 256) + k) ~bt:8 ~mt:8

(* --- run-kernels ---------------------------------------------------------- *)

type backend = [ `Seq | `Par of int ]

(* Five (kernel, backend) pairs: with five equal shares the mode
   boundaries of the latency distribution sit at 20/40/60/80%, ten
   points from p50 and p90 whatever order the modes take. *)
let rotation_kernels =
  [| matmul ~n:28 ~bt:7 ~mt:7; conv2d ~n:24 ~kw:5 ~bt:8 ~mt:4;
     me ~n:24 ~ws:4 ~bt:8 ~mt:4; doitgen ~nr:8 ~np:16 ~bt:2 ~mt:1 |]

(* Array contents of run [seed]: a hash of seed, array and index. *)
let memory ~seed (prog : Emsc_ir.Prog.t) =
  Runner.Filled
    (List.map
       (fun (a : Emsc_ir.Prog.array_decl) ->
         let name = a.Emsc_ir.Prog.array_name in
         (name, fun idx -> float_of_int (Hashtbl.hash (seed, name, idx) land 0xffff) /. 4096.0))
       prog.Emsc_ir.Prog.arrays)

let rotation : (int * backend) array =
  [| (0, `Seq); (0, `Par 2); (1, `Par 2); (2, `Seq); (3, `Par 2) |]
