let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc s;
      (* [close_out] flushes and reports a failed final write;
         [close_out_noerr] then only releases the descriptor *)
      close_out oc)
