(** UDP header. The checksum field is carried verbatim; {!make} sets it to
    zero (legal for IPv4) — full pseudo-header checksums live in
    {!Packet.fixup}. *)

type t = { src_port : int64; dst_port : int64; length : int64; checksum : int64 }

val size_bits : int
val make : ?src_port:int64 -> ?dst_port:int64 -> payload_len:int -> unit -> t
val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
