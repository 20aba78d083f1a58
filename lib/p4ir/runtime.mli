(** Control-plane table state: the set of entries installed in each table.

    Installation is validated against the program (table exists, action
    permitted, key arity, kinds and widths, argument arity and widths,
    capacity), mirroring what a runtime API such as P4Runtime enforces, so
    a table holds only entries its {!Classifier} can represent. Each table
    works its key widths out once per program ({!Typecheck.expr_width} of
    each key expression) and uses them both to check entries and to build
    its classifiers. The same runtime state drives both the reference
    interpreter and the compiled device, modelling the shared control
    plane of Figure 1.

    Entries get monotone per-table ids in install order (never reused, not
    even across {!clear}), which is what lets the per-table {!Classifier}
    structures and the staged engine's caches update incrementally instead
    of rebuilding on every mutation. *)

type t

val create : unit -> t

val add : Ast.program -> t -> table:string -> Entry.t -> (unit, string) result
(** Install [e] at the end of [table]'s install order. [Error] (and
    nothing installed) when the table is undeclared or full, the action
    is not permitted or its arguments do not fit its parameters, or a key
    does not fit: a value whose match kind or width differs from its key
    expression's ({!Typecheck.expr_width}), an LPM prefix longer than the
    key, a ternary mask of a different width. *)

val add_exn : Ast.program -> t -> table:string -> Entry.t -> unit
(** @raise Invalid_argument when {!add} would return [Error]. *)

val remove : Ast.program -> t -> table:string -> Entry.t -> (unit, string) result
(** Remove the earliest-installed live entry whose (priority, keys) equal
    [e]'s — the P4Runtime deletion key; action and arguments are ignored.
    O(1) expected: the structural index and the classifier are patched in
    place, no table rebuild. [Error] when the table is undeclared or no
    entry matches. *)

val install_all : Ast.program -> t -> (string * Entry.t) list -> (unit, string) result
(** Install a batch of (table, entry) pairs, stopping at the first error. *)

val entries : t -> string -> Entry.t list
(** In install order; empty for unknown tables. *)

val entry_count : t -> string -> int
(** O(1). *)

val lookup :
  t -> table:string -> degrade_ternary_to_exact:bool -> Value.t list -> Entry.t option
(** The winning entry for this key list under the
    (priority, specificity, install-order) tie-break — {!Entry.select}
    semantics, answered by the per-table {!Classifier} (built lazily from
    the table's key widths and patched incrementally ever after).
    The tree engine's table applies go through here; the staged engine
    holds the same classifiers through {!tslot_classifier}.
    @raise Invalid_argument when the key widths differ from the table's,
    which only an ill-typed program produces. *)

val clear_table : t -> string -> unit

val clear : t -> unit

val tables : t -> string list

val set_update_hook :
  t -> ?clock:(unit -> int64) -> (string -> int -> unit) -> unit
(** [set_update_hook t ~clock f] arranges [f table ns] after every
    successful mutation of [table], where [ns] is the mutation's duration
    measured with [clock] (a nanosecond timestamp source; defaults to a
    constant clock, so durations read 0 and stay deterministic). Feeds the
    [table/<name>/update_ns] telemetry histogram. *)

(** {2 Engine-facing slot handles}

    A [tslot] pins one table's state so per-packet paths can reach its
    classifier and fetch entries by id without re-hashing the table name.
    Handles stay valid forever: {!clear} empties slots in place rather
    than dropping them, and ids are never reallocated. *)

type tslot

val tslot : t -> string -> tslot
(** Find-or-create the slot for [name]. *)

val tslot_entry : tslot -> int -> Entry.t
(** The live entry with this local id.
    @raise Invalid_argument when the id is dead or out of range. *)

val tslot_classifier : tslot -> Ast.program -> degrade:bool -> Classifier.t
(** The slot's classifier for this quirk setting, built on first use from
    the table's key widths in [program] and patched incrementally by every
    later mutation.
    @raise Invalid_argument when [program] does not declare the table or
    a key expression does not type. *)
