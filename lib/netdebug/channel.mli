(** The dedicated management interface between the host-side software tool
    and the in-device test infrastructure (the vertical link of Figure 1).

    A channel is a pair of byte-message queues. The controller and the
    device agent each hold one endpoint; everything that crosses is a
    serialized {!Wire} message, so the host tool could in principle run on
    a different machine. *)

type t

type endpoint

val create : unit -> endpoint * endpoint
(** (host side, device side). *)

val send : endpoint -> string -> unit

val recv : endpoint -> string option
(** Next pending message for this endpoint, FIFO. *)

val bytes_sent : endpoint -> int
(** Total payload bytes this endpoint has transmitted (management-channel
    load accounting). *)
