(** File output for reports and traces. *)

val write_file : string -> string -> unit
(** [write_file path s] writes [s] to [path], replacing it.  A failed
    write, including the final flush, raises [Sys_error]; the file
    descriptor is released either way. *)
