(** Width-tagged bit-vector values, the runtime representation of every
    P4 field and expression result.

    Values are unsigned, 1-64 bits wide, stored in an [int64] with all bits
    above [width] guaranteed zero. Arithmetic is modulo 2^width, matching
    P4's [bit<N>] semantics. *)

type t = private { width : int; v : int64 }

val make : width:int -> int64 -> t
(** Truncates the argument to [width] bits. [1 <= width <= 64]. *)

val of_int : width:int -> int -> t

val zero : int -> t
(** [zero w] is the all-zeros value of width [w]. *)

val ones : int -> t
(** [ones w] is the all-ones value of width [w]. *)

val width : t -> int

val to_int64 : t -> int64

val to_int : t -> int
(** @raise Invalid_argument when the value exceeds [max_int]. *)

val is_zero : t -> bool

val tru : t
(** Boolean true: width-1 value 1. *)

val fls : t
(** Boolean false: width-1 value 0. *)

val of_bool : bool -> t

val to_bool : t -> bool
(** Non-zero is true (any width). *)

(* Modular arithmetic; result width is the width of the left operand. *)
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

(* Unsigned comparisons, returning booleans as width-1 values. *)
val eq : t -> t -> t
val neq : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

val slice : t -> msb:int -> lsb:int -> t
(** [slice v ~msb ~lsb] is bits [msb..lsb] inclusive, width [msb-lsb+1]. *)

val concat : t -> t -> t
(** Left operand becomes the high bits. Total width must be <= 64. *)

val matches_mask : t -> value:int64 -> mask:int64 -> bool
(** Ternary match: [(v land mask) = (value land mask)]. *)

val matches_prefix : t -> value:int64 -> prefix_len:int -> bool
(** LPM match on the top [prefix_len] bits. *)

val equal : t -> t -> bool
(** Width and bits both equal. *)

val pp : Format.formatter -> t -> unit
(** e.g. "16w0x800". *)
