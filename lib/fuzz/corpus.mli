(** Fuzzing corpus with energy scheduling.

    Inputs enter with a base energy; when a mutation of an input uncovers
    a new coverage edge, the parent's energy doubles (capped), so
    productive inputs are selected — and mutated — more often. Selection
    is energy-weighted and a function of the PRNG stream alone. *)

type item

type t

val create : unit -> t
val size : t -> int
val add : t -> Bitutil.Bitstring.t -> unit
val bits : item -> Bitutil.Bitstring.t

val pick : t -> Bitutil.Prng.t -> item
(** Energy-weighted choice. @raise Invalid_argument on an empty corpus. *)

val reward : t -> item -> unit
(** Double the item's energy (capped at 16x base). *)
