(** Named monotonically increasing counters, the basic telemetry
    primitive of the device model and the NetDebug checker. Values are
    read and added as [int64]; they are stored as native ints (63 bits on
    64-bit hosts) so that {!incr} on the packet path allocates nothing. *)

type t

val create : unit -> t
(** A counter at zero; a {!Set} gives counters their names. *)

val incr : t -> unit
val add : t -> int64 -> unit
val get : t -> int64
val reset : t -> unit

module Set : sig
  (** A registry of counters addressed by name, e.g. the counter block of a
      pipeline stage. Reads of unknown counters return zero rather than
      failing, matching hardware counter-register semantics. *)

  type counter = t
  type t

  val create : unit -> t
  val find : t -> string -> counter
  (** Find or create. *)

  val get : t -> string -> int64
  val incr : t -> string -> unit
  val add : t -> string -> int64 -> unit
  val reset_all : t -> unit
  val to_alist : t -> (string * int64) list
  (** Sorted by name. *)
end
