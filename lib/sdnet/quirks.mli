(** The quirk model: systematic divergences of the SDNet-style compiler
    from the P4 specification.

    Each quirk is a realistic compiler bug or undocumented limitation.
    [Reject_unimplemented] is the bug the paper actually found in Xilinx
    SDNet ("the reject parser state ... is not implemented by SDNet. This
    meant that any packet coming into the data plane was sent out to the
    next hop, even if it was supposed to be dropped") and is part of
    {!default} so the simulated toolchain reproduces it out of the box. *)

type quirk =
  | Reject_unimplemented
      (** parser [reject] compiles to [accept]: packets proceed through the
          pipeline instead of being dropped *)
  | Ternary_as_exact
      (** ternary match keys silently compiled as exact-match on the value *)
  | Shift_width_truncated of int
      (** shift amounts are truncated to [n] bits by a narrow barrel
          shifter *)
  | Egress_drop_ignored
      (** [mark_to_drop] in the egress control has no effect *)
  | Select_cases_truncated of int
      (** only the first [n] cases of each parser [select] are compiled;
          later cases fall through to the default *)
  | Checksum_not_handled
      (** architecture checksum verify/update blocks are silently skipped *)

type t = quirk list

val default : t
(** What the real toolchain shipped with: [[Reject_unimplemented]]. *)

val none : t
(** A faithful compiler (the hypothetical fixed toolchain). *)

val all : t
(** Every quirk, for the compiler-check battery. *)

val has_reject_unimplemented : t -> bool
val shift_truncation : t -> int option
val select_truncation : t -> int option
val has : t -> quirk -> bool

val name : quirk -> string
val pp : Format.formatter -> t -> unit
