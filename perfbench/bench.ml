(* Command-line entry of the benchmark:

     bench.exe --workload <compile-cold|serve-mixed|run-kernels>
               --seed <n> --seconds <s> --trace <0|1>

   prints human-readable notes, then one JSON object as the last line:
   end-to-end metrics untraced, per-layer metrics traced. *)

open Perfbench_lib

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some run ->
    let r = Workloads.measure run ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
    List.iter print_endline r.Workloads.notes;
    print_endline (Workloads.result_json r)
