(** A packet as a stack of decoded headers plus an opaque payload.

    This is the concrete-packet representation used at the edges of the
    system: the traffic generators build packets, the device model carries
    their serialized bits, and the checkers re-parse device output for
    inspection. The P4 data plane itself never sees this type — it parses
    raw bits according to its own parser program. *)

type header =
  | Eth of Eth.t
  | Vlan of Vlan.t
  | Arp of Arp.t
  | Ipv4 of Ipv4.t
  | Ipv6 of Ipv6.t
  | Icmp of Icmp.t
  | Tcp of Tcp.t
  | Udp of Udp.t
  | Mpls of Mpls.t

type t = { headers : header list; payload : Bitutil.Bitstring.t }

val make : header list -> ?payload:Bitutil.Bitstring.t -> unit -> t

val payload_of_string : string -> Bitutil.Bitstring.t

val serialize : t -> Bitutil.Bitstring.t
(** Concatenation of encoded headers then the payload. *)

val byte_length : t -> int

val parse : Bitutil.Bitstring.t -> t
(** Best-effort decode starting at Ethernet. Decoding stops at the first
    unknown or truncated header; remaining bits become the payload. Never
    raises. *)

val find_eth : t -> Eth.t option
val find_ipv4 : t -> Ipv4.t option
val find_udp : t -> Udp.t option
val find_tcp : t -> Tcp.t option
val find_vlan : t -> Vlan.t option

val map_ipv4 : (Ipv4.t -> Ipv4.t) -> t -> t
(** Rewrite the first IPv4 header, if present. *)

val fixup : t -> t
(** Recompute dependent fields: IPv4 [total_len] and header checksum, UDP
    [length], and chain EtherType / protocol fields so the header stack is
    self-consistent. *)

val equal : t -> t -> bool

(* Convenience constructors used all over tests and experiments. *)

val udp_ipv4 :
  ?eth_src:int64 ->
  ?eth_dst:int64 ->
  ?src:int64 ->
  ?dst:int64 ->
  ?src_port:int64 ->
  ?dst_port:int64 ->
  ?ttl:int64 ->
  ?payload_bytes:int ->
  unit ->
  t
(** A well-formed Ethernet/IPv4/UDP packet with a deterministic payload. *)

val tcp_ipv4 :
  ?src:int64 -> ?dst:int64 -> ?src_port:int64 -> ?dst_port:int64 -> ?flags:int64 ->
  unit -> t

val arp_request : ?spa:int64 -> ?tpa:int64 -> unit -> t

(* Protocol codec re-exports (this module is the library interface). *)
module Addr = Addr
module Proto = Proto
module Eth = Eth
module Vlan = Vlan
module Arp = Arp
module Ipv4 = Ipv4
module Ipv6 = Ipv6
module Icmp = Icmp
module Tcp = Tcp
module Udp = Udp
module Mpls = Mpls
module Pcap = Pcap
