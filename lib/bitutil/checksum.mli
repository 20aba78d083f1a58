(** Internet checksum (RFC 1071) over byte strings.

    This is the byte-wise form: the packet codecs and the tree engine's
    parser and deparser sum a rendered header with it. The staged engine
    builds the same sum straight from a header's field values, without
    rendering it, and shares only {!fold}. *)

val fold : int -> int
(** End-around-carry fold of a non-negative sum of 16-bit words into
    [\[0, 0xffff\]]: the result is congruent to the sum modulo 0xffff, and
    is 0 only when the sum is 0. *)

val ones_complement_sum : string -> int
(** 16-bit one's-complement sum of the data, before final complement.
    Odd-length data is padded with a zero byte. *)

val checksum : string -> int
(** The Internet checksum: complement of {!ones_complement_sum}, in
    [\[0, 0xffff\]]. *)

val checksum_bits : Bitstring.t -> int
(** Checksum over the byte rendering of a bit string. *)

val valid : string -> bool
(** [valid data] holds when the data (with its embedded checksum field)
    sums to 0xffff, i.e. the checksum verifies. *)
