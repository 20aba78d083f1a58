(** Classic libpcap capture files (little-endian, LINKTYPE_ETHERNET).

    NetDebug's checker captures failing packets with virtual timestamps;
    exporting them as pcap lets standard tooling dissect them. A reader is
    included so round trips are testable without external tools. *)

type record = { ts_ns : float; data : string }

val encode : record list -> string
(** A complete capture file: global header + one record per packet.
    Packets longer than the 65535-byte snap length are truncated. *)

val decode : string -> (record list, string) result
(** Accepts the little-endian microsecond format {!encode} produces. *)

val write_file : string -> record list -> unit
