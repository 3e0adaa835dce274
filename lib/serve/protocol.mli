(** The [emsc-serve/1] wire protocol: newline-delimited JSON.

    A client sends one JSON object per line and reads one JSON object
    per line back, in request order.  Every request carries the
    protocol version under ["v"] and an opaque ["id"] the response
    echoes, so a client may pipeline requests on one connection.

    Requests:
    {v
    {"v":"emsc-serve/1","id":"1","op":"compile","name":"mm","text":"...",
     "options":{"arch":"cell","block":[16,16],"mem":[0,0,8]}}
    {"v":"emsc-serve/1","id":"2","op":"analyze","text":"..."}
    {"v":"emsc-serve/1","id":"3","op":"check","fuzz":25,"seed":3}
    {"v":"emsc-serve/1","id":"4","op":"status"}
    {"v":"emsc-serve/1","id":"5","op":"shutdown"}
    v}

    Responses:
    {v
    {"v":"emsc-serve/1","id":"1","ok":true,"result":{...},"server":{...}}
    {"v":"emsc-serve/1","id":"1","ok":false,
     "error":{"code":"queue_full","message":"..."}}
    v}

    The ["result"] object of a compile/analyze response is a pure
    function of (source, options, machine) — bit-identical to what a
    direct [Pipeline.compile] of the same job yields through
    {!compile_result}/{!analyze_result}.  Timings, cache traffic and
    queue state live in the non-deterministic sibling ["server"]
    object. *)

module J = Emsc_obs.Json

val version : string
(** ["emsc-serve/1"]. *)

val default_max_line_bytes : int
(** 1 MiB: requests longer than this are rejected before parsing. *)

type options_req = {
  o_arch : [ `Gpu | `Cell ];
  o_merge_per_array : bool;
  o_delta : float;
  o_optimize_movement : bool;
  o_inter_tile_reuse : bool;
  o_machine : string;  (** built-in name or machine-file path; [""] = default *)
  o_block : int list;  (** block tile sizes; [[]] = untiled *)
  o_mem : int list;
  o_thread : int list;
}

val default_options : options_req

type op =
  | Compile of { name : string; text : string; options : options_req }
  | Analyze of { name : string; text : string; options : options_req }
  | Check of { fuzz : int; seed : int }
  | Status
  | Shutdown

type request = {
  req_id : string;
  op : op;
  timeout_ms : float option;
      (** overrides the daemon's default per-request timeout *)
}

val op_name : op -> string

type reject = {
  code : string;
      (** ["bad_json"], ["bad_version"], ["bad_request"],
          ["oversized_line"], ["queue_full"], ["timeout"],
          ["draining"], ["compile_error"], ["server_error"] *)
  message : string;
}

val reject : string -> string -> reject

val request_line : request -> string
(** One-line (no trailing newline) encoding of a request. *)

val parse_request : string -> (request, reject) result
(** Parse one request line.  Never raises: malformed input comes back
    as a typed [reject] the daemon answers in-band. *)

val ok_response : id:string -> ?server:(string * J.t) list -> J.t -> string
val error_response : id:string -> reject -> string

val analyze_result :
  capacity_words:int -> Emsc_driver.Pipeline.compiled -> J.t
(** Deterministic analyze payload: source, digest, plan explanation.
    @raise Failure when the compilation carries no plan. *)

val compile_result :
  capacity_words:int -> Emsc_driver.Pipeline.compiled -> J.t
(** Deterministic compile payload: analyze fields plus the generated
    kernel and per-buffer movement code, pretty-printed.
    @raise Failure when the compilation carries no plan. *)
