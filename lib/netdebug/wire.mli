(** Serialization of the management protocol.

    Everything the host tool exchanges with the in-device test
    infrastructure crosses the {!Channel} as bytes in this format — the
    configs are genuinely marshalled and unmarshalled, round-trip tested,
    so the "software tool on a host computer" of Figure 1 is a real
    protocol boundary, not a function call. *)

type mutation =
  | Set_field of string * string * int64  (** header, field, value *)
  | Sweep_field of string * string * int64 * int64  (** start, step (per packet) *)
  | Random_field of string * string * int  (** PRNG seed *)

type stream = {
  s_template : Bitutil.Bitstring.t;
  s_count : int;
  s_interval_ns : float;
  s_mutations : mutation list;
}

(** A checker rule: for output packets satisfying [r_filter] (all packets
    when [None]), the expression [r_expect] must evaluate true. Both are P4
    expressions over the test program's headers; the observed output port
    is exposed as [standard_metadata.egress_spec]. *)
type rule = {
  r_name : string;
  r_filter : P4ir.Ast.expr option;
  r_expect : P4ir.Ast.expr;
}

type rule_stats = { rs_name : string; rs_matched : int; rs_passed : int; rs_failed : int }

type capture = {
  cap_rule : string;
  cap_port : int;
  cap_time_ns : float;
  cap_bits : Bitutil.Bitstring.t;
}

type checker_summary = {
  cs_total_seen : int;
  cs_rules : rule_stats list;
  cs_captures : capture list;  (** bounded ring of failing packets *)
  cs_pps : float;  (** packets/s observed at the check point *)
  cs_gbps : float;
  cs_lat_mean_ns : float;
  cs_lat_p50_ns : float;
  cs_lat_p99_ns : float;
}

type status_summary = {
  ss_time_ns : float;
  ss_packets_in : int64;
  ss_packets_out : int64;
  ss_queue_drops : int64;
  ss_pipeline_drops : int64;
  ss_queue_depth : int;
}

type host_msg =
  | Configure_generator of stream list
  | Configure_checker of rule list
  | Start_generator
  | Read_checker
  | Read_status
  | Read_stage_counters
  | Read_register of string
      (** dump a register array's non-zero cells (status monitoring of
          stateful programs) *)
  | Clear_test_state

type dev_msg =
  | Ack
  | Error_msg of string
  | Checker_report of checker_summary
  | Status_report of status_summary
  | Stage_counters of (string * int64) list
  | Register_dump of (int * int64) list  (** sparse: non-zero cells only *)

val encode_host : host_msg -> string
val decode_host : string -> (host_msg, string) result
val encode_dev : dev_msg -> string
val decode_dev : string -> (dev_msg, string) result

val max_expr_depth : int
(** Deepest expression the decoders accept, counting a leaf as depth 1;
    a deeper one is an [Error], so outside input cannot overflow the
    stack. *)

(* Exposed for tests *)
val encode_expr : Buffer.t -> P4ir.Ast.expr -> unit
val decode_expr : string -> int ref -> P4ir.Ast.expr
