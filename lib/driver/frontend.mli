(** Front end of the driver pipeline: reading and parsing sources with
    recoverable errors.

    Every entry point used to clone its own parse-and-report helper
    and call [exit 1] on failure; library callers could not recover.
    Here errors are ordinary values: the CLI decides to exit, the
    batch compiler records the failure and keeps going. *)

type error = {
  origin : string;   (** file / source name *)
  stage : string;    (** "read", "lex", "parse", or a pipeline stage *)
  message : string;
}

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

val parse : name:string -> string -> (Emsc_ir.Prog.t, error) result

val load : Source.t -> (Emsc_ir.Prog.t * string, error) result
(** Program plus its content digest. *)
