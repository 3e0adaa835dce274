(* Prints the [Build_id] module: a digest of the files named on the
   command line, each by its path and contents, in sorted order.

     build_id_gen.exe FILE... > build_id.ml *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let entry f = f ^ "\x00" ^ Digest.to_hex (Digest.file f) in
  let id =
    Digest.to_hex (Digest.string (String.concat "\x00" (List.map entry files)))
  in
  Printf.printf "let id = %S\n" id
