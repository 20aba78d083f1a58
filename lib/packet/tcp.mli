(** TCP header (no options; [data_offset] fixed at 5 by {!make}). *)

type t = {
  src_port : int64;
  dst_port : int64;
  seq : int64;
  ack : int64;
  data_offset : int64;
  reserved : int64;
  flags : int64;  (** CWR ECE URG ACK PSH RST SYN FIN, MSB first *)
  window : int64;
  checksum : int64;
  urgent : int64;
}

val size_bits : int

val make :
  ?src_port:int64 -> ?dst_port:int64 -> ?seq:int64 -> ?flags:int64 -> unit -> t

val flag_syn : int64
val flag_ack : int64

val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
