(** ARP for IPv4 over Ethernet. *)

type t = {
  htype : int64;
  ptype : int64;
  hlen : int64;
  plen : int64;
  oper : int64;  (** 1 = request, 2 = reply *)
  sha : int64;
  spa : int64;
  tha : int64;
  tpa : int64;
}

val size_bits : int
val request : sha:int64 -> spa:int64 -> tpa:int64 -> t
val encode : Bitstring.Writer.t -> t -> unit
val decode : Bitstring.Reader.t -> t
val to_bits : t -> Bitstring.t
val equal : t -> t -> bool
