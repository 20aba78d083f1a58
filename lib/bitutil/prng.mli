(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a single integer seed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val advance : t -> int -> unit
(** [advance t n] skips [n] draws in O(1): [t] ends where [n] calls of
    {!next_int64} would leave it. {!split}, {!int}, {!bool}, {!float},
    {!bits} and {!choose} each take exactly one such step. *)

val split : t -> t
(** Derive a statistically independent generator; also advances [t]. *)

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bits : t -> width:int -> int64
(** [bits t ~width] is uniform over [width]-bit values, [1 <= width <= 64]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
