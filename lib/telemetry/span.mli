(** Bounded, allocation-lean store of typed per-packet spans.

    Every sampled packet traversal through the device becomes a tree of
    spans: a [Packet] root covering arrival to departure, with [Rx_queue],
    [Parse], [Stage], [Deparse] and [Tx] children carrying virtual-time
    intervals, byte counts and drop/fault annotations. Spans live in flat
    parallel arrays behind a ring-buffer bound (oldest spans are evicted,
    {!dropped} counts them); recording a span is ten scalar array writes —
    no per-span allocation on the hot path. Span names and annotations are
    {!intern}ed strings referenced by integer id. *)

type kind = Packet | Rx_queue | Parse | Stage | Deparse | Tx

val kind_to_string : kind -> string

val flag_drop : int
(** Bit set in [flags] when the span ends in a drop. *)

val flag_fault : int
(** Bit set in [flags] when an injected fault fired inside the span. *)

val no_note : int
(** Sentinel for "no annotation" (avoids boxing an option on the hot path). *)

val no_parent : int
(** Sentinel parent id for root spans. *)

(** Materialized read-back view (allocates; off the hot path). *)
type span = {
  sp_id : int;  (** unique, increasing with record order of id issue *)
  sp_parent : int;  (** span id of the parent, or {!no_parent} *)
  sp_packet : int;  (** device packet id the span belongs to *)
  sp_kind : kind;
  sp_name : string;  (** e.g. "stage[2]:ma:ipv4_lpm", "tx[1]" *)
  sp_start_ns : float;  (** virtual time *)
  sp_end_ns : float;
  sp_bytes : int;  (** packet bytes for packet-level spans, else 0 *)
  sp_drop : bool;
  sp_fault : bool;
  sp_note : string option;  (** action name, drop reason, … *)
}

type t

val create : ?capacity:int -> ?sampling:int -> unit -> t
(** Ring of [capacity] spans (default 8192). [sampling] as for
    {!set_sampling} (default 1: every packet). *)

val intern : t -> string -> int
(** Intern a name/annotation; stable id per distinct string. *)

val name_of : t -> int -> string
(** Inverse of {!intern}; "" for unknown ids. *)

val set_sampling : t -> int -> unit
(** [set_sampling t n]: {!sample} accepts 1-in-[n] packets ([0] disables
    spans entirely). Resets the phase so the next packet is sampled. *)

val sampling : t -> int

val sample : t -> bool
(** Per-packet sampling decision; advances the 1-in-n phase. *)

val next_id : t -> int
(** Reserve a span id without recording — lets a root reserve its id
    before its children record, then fill itself in at packet end. *)

val issued : t -> int
(** Ids handed out so far; a watermark for "spans recorded since". *)

val record :
  t ->
  id:int ->
  parent:int ->
  packet:int ->
  kind:kind ->
  name:int ->
  t0:float ->
  t1:float ->
  bytes:int ->
  flags:int ->
  note:int ->
  unit
(** Record a completed span under a previously reserved id. [name] and
    [note] are interned ids ({!no_note} for none). *)

val add :
  t ->
  parent:int ->
  packet:int ->
  kind:kind ->
  name:int ->
  t0:float ->
  t1:float ->
  bytes:int ->
  flags:int ->
  note:int ->
  int
(** {!next_id} + {!record}; returns the new span's id. *)

val add_offset :
  t ->
  parent:int ->
  packet:int ->
  kind:kind ->
  name:int ->
  origin:float ->
  offset:float ->
  duration:float ->
  bytes:int ->
  flags:int ->
  note:int ->
  int
(** {!add} for a span that starts [offset] after [origin] and lasts
    [duration]: [t0 = origin +. offset] and [t1 = t0 +. duration]. The
    store does the arithmetic, so the two times reach its float arrays
    unboxed; a caller that passes floats it already holds (a packet's
    entry time, a stage's fixed offset and latency) allocates nothing,
    where computing [t0] and [t1] itself would box both. *)

val count : t -> int
(** Spans currently retained. *)

val dropped : t -> int
(** Spans evicted by the ring bound since creation. *)

val capacity : t -> int

val spans : t -> span list
(** Retained spans in record order (oldest first). *)

val iter : t -> (span -> unit) -> unit

val spans_for_packet : t -> int -> span list
