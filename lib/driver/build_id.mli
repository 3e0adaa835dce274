(** The compiler build's identity: a digest of every source file under
    [lib/] (paths and contents), generated at build time.  Any change
    to the compiler's code gives a new id. *)

val id : string
