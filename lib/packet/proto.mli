(** Protocol number constants shared by the codecs and the P4 programs. *)

(* EtherTypes *)
val ethertype_ipv4 : int64
val ethertype_arp : int64
val ethertype_ipv6 : int64
val ethertype_vlan : int64
val ethertype_mpls : int64

(* IP protocol numbers *)
val ipproto_icmp : int64
val ipproto_tcp : int64
val ipproto_udp : int64
