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

    Updates are incremental: {!insert} and {!remove} patch the bucket
    structure in place, so control-plane churn never rebuilds the table.

    Entries the fast path cannot represent fall back to an exact replica
    of the legacy scan over the live entries (including its raise
    behaviour): entries containing an LPM whose prefix length exceeds the
    key width (which {!Value.matches_prefix} answers by raising), and
    tables whose key widths exceed 62 bits (beyond OCaml's native int).
    The replica preserves full observational equivalence, it is just
    linear again. *)

type t

val create : kws:int array -> degrade:bool -> resolve:(int -> Entry.t) -> t
(** A classifier for keys of widths [kws] (in key order), under the
    [degrade] ternary quirk. [resolve] maps an entry id back to its entry;
    it is only consulted when the structure must fall back to the legacy
    replica (ids passed to {!insert} stay resolvable until {!remove}). *)

val insert : t -> int -> Entry.t -> unit
(** [insert t id e] adds entry [e] under id [id]. Ids must be unique among
    live entries; install-order ties are broken by ascending id, so callers
    allocate ids monotonically in install order. O(1) amortized. *)

val remove : t -> int -> Entry.t -> unit
(** Remove the entry previously inserted under [id] ([e] must be that
    entry; it re-derives the bucket coordinates). Unknown ids are a no-op.
    O(1) amortized. *)

val clear : t -> unit
(** Drop all entries, keeping the allocated capacity. *)

val size : t -> int
(** Live entries stored (entries that can never match any key of the
    declared widths are tracked separately and not counted). *)

val find_values : t -> Value.t list -> int
(** The id of the winning entry for this key list, or -1 on miss.
    Equivalent to [Entry.select] over the live entries in install order —
    including its raise behaviour on pathological LPM entries. Key lists
    whose widths differ from [kws] are answered correctly via the legacy
    replica (the structure flips to fallback mode, a performance — never a
    semantics — event). The fast path does not allocate. *)

val find_raw : t -> int64 array -> int
(** [find_values] over raw key words (each masked to its key width, as the
    staged engine's key scratch holds them); [arr] supplies the first
    [Array.length (kws t)] words. The fast path does not allocate. *)

val rebuilds : t -> int
(** Structural re-derivations since {!create}: transitions between the
    fast structure and the legacy-replica fallback. Never incremented by
    {!insert}/{!remove} on the fast path — the churn scenario asserts this
    stays flat under sustained updates. *)

val is_fallback : t -> bool
(** True when operating as the legacy-replica fallback (for tests). *)
