(** Immutable bit strings, MSB-first.

    A bit string is a sequence of bits; bit 0 is the most significant bit of
    the first byte. Packets, header fields and parser extraction all operate
    on this representation. Widths handled by integer accessors are limited
    to 64 bits; wider data is handled via {!sub}/{!append}. *)

type t

val empty : t

val length : t -> int
(** Length in bits. *)

val byte_length : t -> int
(** Number of bytes needed to hold the bits (rounded up). *)

val of_string : string -> t
(** Each byte contributes 8 bits, MSB first. *)

val to_string : t -> string
(** Pads the final partial byte (if any) with zero bits. *)

val of_hex : string -> t
(** [of_hex "0800"] is the 16-bit string 0x0800. Whitespace is ignored.
    @raise Invalid_argument on non-hex characters or odd digit count. *)

val to_hex : t -> string

val of_int64 : width:int -> int64 -> t
(** [of_int64 ~width v] encodes the low [width] bits of [v], MSB first.
    [0 <= width <= 64]. *)

val get_bit : t -> int -> bool

val extract : t -> off:int -> width:int -> int64
(** Read [width] bits starting at bit offset [off] as an unsigned integer.
    [width <= 64]. When the string has at least 8 bytes and the field's
    bits lie inside one 8-byte window — the one starting at the field's
    first byte, or the last 8 bytes when that one would run past the
    end — this is one big-endian 64-bit load and two shifts; otherwise
    the field is read a byte at a time.
    @raise Invalid_argument when out of range. *)

val sub : t -> off:int -> len:int -> t

val set_int64 : t -> off:int -> width:int -> int64 -> t
(** Functional update of [width] bits at [off]. *)

val blit_int64 : Bytes.t -> off:int -> width:int -> int64 -> unit
(** In-place update of [width] bits at bit offset [off] in a raw byte
    buffer, MSB first — the mutable counterpart of {!set_int64}. Every
    target bit is overwritten. Under {!extract}'s condition this is one
    64-bit read-modify-write (the window's other bits are written back
    unchanged); otherwise it writes a byte at a time. {!Writer.push_int64}
    and {!Builder.add_int64} write through it.
    @raise Invalid_argument when out of range or [width] is not in
    [\[0, 64\]]. *)

val append : t -> t -> t

val concat : t list -> t

val equal : t -> t -> bool

val random : Prng.t -> int -> t
(** [random prng n] is a uniformly random [n]-bit string. *)

module Writer : sig
  (** Mutable accumulator for building bit strings front-to-back. *)

  type bits = t
  type t

  val create : unit -> t
  val push_int64 : t -> width:int -> int64 -> unit
  val push_bits : t -> bits -> unit
  val push_string : t -> string -> unit
  val length : t -> int
  val contents : t -> bits
end

module Builder : sig
  (** Reusable mutable accumulator for building bit strings front-to-back.

      Unlike {!Writer}, a builder is meant to be kept and {!reset} between
      uses: the backing buffer is retained, so a steady-state emit loop
      (e.g. the staged deparser) performs no per-packet allocation beyond
      the final {!contents} copy. Observationally it agrees with
      {!set_int64}/{!concat} composition (property-tested). *)

  type bits = t
  type t

  val create : ?capacity_bits:int -> unit -> t
  (** [capacity_bits] defaults to 512; the buffer grows by doubling. *)

  val reset : t -> unit
  (** Forget the accumulated bits; the buffer is retained. *)

  val length : t -> int
  (** Bits accumulated since the last {!reset}. *)

  val add_int64 : t -> width:int -> int64 -> unit
  val add_bits : t -> bits -> unit

  val add_sub : t -> bits -> off:int -> len:int -> unit
  (** Append [len] bits of [src] starting at [off] without materializing
      the intermediate {!sub}. *)

  val contents : t -> bits
  (** Snapshot as an immutable bit string (allocates the copy). *)
end

module Reader : sig
  (** Cursor for consuming a bit string front-to-back. *)

  type bits = t
  type t

  val create : bits -> t
  val pos : t -> int
  val remaining : t -> int

  val read : t -> int -> int64
  (** [read r width] consumes [width] bits. @raise Invalid_argument if fewer
      than [width] bits remain. *)

  val read_bits : t -> int -> bits
  val skip : t -> int -> unit

  val seek : t -> int -> unit
  (** Reposition the cursor (used to roll back a failed decode). *)

  val rest : t -> bits
end
