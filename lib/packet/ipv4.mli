(** IPv4 header (options unsupported; [ihl] is fixed at 5 by {!make} but
    arbitrary values survive a decode/encode round-trip). *)

type t = {
  version : int64;
  ihl : int64;
  dscp : int64;
  ecn : int64;
  total_len : int64;
  ident : int64;
  flags : int64;
  frag_offset : int64;
  ttl : int64;
  protocol : int64;
  checksum : int64;
  src : int64;
  dst : int64;
}

val size_bits : int

val make :
  ?dscp:int64 ->
  ?ttl:int64 ->
  ?protocol:int64 ->
  ?src:int64 ->
  ?dst:int64 ->
  payload_len:int ->
  unit ->
  t
(** Builds a well-formed header: version 4, ihl 5, correct [total_len] for a
    payload of [payload_len] bytes, and a correct checksum. *)

val with_checksum : t -> t
(** Recompute the header checksum field. *)

val checksum_ok : t -> bool

val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
