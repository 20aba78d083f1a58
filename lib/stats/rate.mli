(** Rate computation over simulated-time observation windows.

    The device simulator advances a virtual clock in nanoseconds; a rate
    meter accumulates packet and byte counts against that clock and reports
    packets/s and bits/s. *)

type t

val create : unit -> t

val record : t -> now_ns:float -> bytes:int -> unit
(** Record one packet of [bytes] observed at virtual time [now_ns]. *)

val packets : t -> int

val packets_per_sec : t -> float

val gbps : t -> float

val clear : t -> unit
