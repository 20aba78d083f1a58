(** Production-scale match structures: the incremental replacement for the
    priority-ordered linear scan in {!Entry.select}.

    A classifier is built for one table key signature (the key widths, in
    key order) and one setting of the [degrade_ternary_to_exact] quirk. It
    groups installed entries into buckets keyed by (priority, specificity,
    per-position mask vector): exact and degraded-ternary keys become
    full-width masks, LPM keys become prefix masks stratified by prefix
    length (so single-key LPM probes one bucket per populated prefix
    length, longest first — Waldvogel-style linear descent), and ternary
    keys one bucket per distinct mask. Buckets are probed in descending
    (priority, specificity) order with early exit; inside a bucket a
    constant-time open-addressing hash over the masked key words finds the
    candidate row, whose chain keeps entry ids ascending so the earliest
    install order wins remaining ties. The first level with any hit is the
    answer — bit-identical to {!Entry.select}'s
    (priority, specificity, install-order) tie-break.

    Updates are incremental: {!insert} and {!remove} patch one row of one
    bucket in place, so control-plane churn never re-derives the table.

    A key of 62 bits or less is one native-int word; a wider key is two
    (bits 63..32, then 31..0), so every width from 1 to 64 takes the same
    lookup path. Entries must have the shape {!Runtime.add} admits, which
    checks them against the same widths: one key per declared width, key
    values and ternary masks of exactly that width, LPM prefixes no longer
    than the key. *)

type t

val create : kws:int array -> degrade:bool -> t
(** A classifier for keys of widths [kws] (in key order, each 1..64),
    under the [degrade] ternary quirk. *)

val insert : t -> int -> Entry.t -> unit
(** [insert t id e] adds entry [e] under id [id]. Ids must be unique among
    live entries; install-order ties are broken by ascending id, so callers
    allocate ids monotonically in install order. O(1) amortized. [e] must
    have the shape {!Runtime.add} admits (asserted). *)

val remove : t -> int -> Entry.t -> unit
(** Remove the entry previously inserted under [id] ([e] must be that
    entry; it re-derives the bucket coordinates). Unknown ids are a no-op.
    O(1) amortized. *)

val clear : t -> unit
(** Drop all entries, keeping the allocated capacity. *)

val size : t -> int
(** Live entries stored. *)

val find_values : t -> Value.t list -> int
(** The id of the winning entry for this key list, or -1 on miss:
    [Entry.select] over the live entries in install order. Allocates
    nothing.
    @raise Invalid_argument when the key widths differ from the
    classifier's, which only an ill-typed program can produce. *)

val find_raw : t -> int64 array -> int
(** [find_values] over raw key words (each masked to its key width, as the
    staged engine's key scratch holds them); [arr] supplies the first
    [Array.length kws] words. Allocates nothing. *)
