(** The host-side software tool of Figure 1.

    Talks to the in-device agent exclusively through the serialized
    management protocol. The [pump] callback runs the device side between
    request and reply (the simulator is single-threaded); in a real
    deployment it would be the PCIe/JTAG transport doing the work. *)

type t

val create : pump:(unit -> unit) -> Channel.endpoint -> t

(* Typed conveniences over rpc; each fails on protocol errors. *)

val configure_generator : t -> Wire.stream list -> (unit, string) result
val configure_checker : t -> Wire.rule list -> (unit, string) result
val start_generator : t -> (unit, string) result
val read_checker : t -> (Wire.checker_summary, string) result
val read_status : t -> (Wire.status_summary, string) result
val read_stage_counters : t -> ((string * int64) list, string) result

(** [read_register t name] returns the non-zero cells of a device register
    array as (index, value) pairs. *)
val read_register : t -> string -> ((int * int64) list, string) result

val clear_test_state : t -> (unit, string) result

val stream :
  ?count:int ->
  ?interval_ns:float ->
  ?mutations:Wire.mutation list ->
  Bitutil.Bitstring.t ->
  Wire.stream
(** Stream constructor: defaults to one packet, 1000 ns spacing. *)

val expect_port : int -> Wire.rule
(** Rule ["egress=<port>"] asserting the observed egress port. *)

val expect : ?filter:P4ir.Ast.expr -> name:string -> P4ir.Ast.expr -> Wire.rule

val mgmt_bytes : t -> int
(** Bytes this controller has pushed down the management channel. *)
