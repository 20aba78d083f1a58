(** IPv6 header. The two 128-bit addresses are stored as (hi, lo) pairs of
    64-bit values, matching the IR's 64-bit field limit. *)

type t = {
  version : int64;
  traffic_class : int64;
  flow_label : int64;
  payload_len : int64;
  next_header : int64;
  hop_limit : int64;
  src_hi : int64;
  src_lo : int64;
  dst_hi : int64;
  dst_lo : int64;
}

val size_bits : int

val make :
  ?next_header:int64 ->
  ?hop_limit:int64 ->
  ?src:int64 * int64 ->
  ?dst:int64 * int64 ->
  payload_len:int ->
  unit ->
  t

val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
