(** IEEE 802.1Q VLAN tag (the four bytes after the outer MAC addresses). *)

type t = { pcp : int64; dei : int64; vid : int64; ethertype : int64 }

val size_bits : int
val make : ?pcp:int64 -> ?dei:int64 -> ?vid:int64 -> ?ethertype:int64 -> unit -> t
val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
