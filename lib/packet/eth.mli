(** Ethernet II header (no FCS; the device model accounts FCS separately). *)

type t = { dst : int64; src : int64; ethertype : int64 }

val size_bits : int

val make : ?dst:int64 -> ?src:int64 -> ?ethertype:int64 -> unit -> t
(** Defaults: broadcast dst, zero src, IPv4 ethertype. *)

val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
