(** ICMP (echo-oriented subset: type, code, checksum, rest-of-header). *)

type t = { icmp_type : int64; code : int64; checksum : int64; rest : int64 }

val size_bits : int
val echo_request : ?ident:int64 -> ?seq:int64 -> unit -> t
val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
