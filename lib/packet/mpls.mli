(** MPLS label stack entry. *)

type t = { label : int64; tc : int64; bos : int64; ttl : int64 }

val size_bits : int
val make : ?label:int64 -> ?tc:int64 -> ?bos:int64 -> ?ttl:int64 -> unit -> t
val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
