(** Metrics registry: the single registration point for a device's named
    counters, gauges and histograms.

    Counters are backed by the registry's own {!Stats.Counter.Set}
    ({!counter_set}; counters created in it elsewhere — e.g. per-program
    counters made on demand — appear in the same namespace). Gauges are callbacks sampled
    at {!snapshot} time (queue depths, static pipeline facts). Histograms
    are {!Stats.Histogram} values updated by the owner. Registration
    attaches optional help text that exporters surface. *)

type value =
  | Counter of int64
  | Gauge of float
  | Histogram of Stats.Histogram.t

type t

val create : unit -> t
(** An empty registry with a fresh counter set. *)

val counter_set : t -> Stats.Counter.Set.t

val counter : t -> ?help:string -> string -> Stats.Counter.t
(** Find-or-create; repeated registration returns the same counter. *)

val gauge : t -> ?help:string -> string -> (unit -> float) -> unit
(** Register (or replace) a callback gauge. *)

val histogram : t -> ?help:string -> string -> Stats.Histogram.t
(** Find-or-create. *)

val help : t -> string -> string
(** Help text attached at registration; "" when none. *)

val merge : ?prefix:string -> into:t -> t -> unit
(** [merge ~into src] folds [src]'s metrics into [into]: counters are
    added by name (skipped when [into] is [src] — the values are
    already there), histogram datasets are
    absorbed in place into [into]'s handles so owners holding them keep
    seeing updates, and help text for a name already registered in
    [into] is kept as-is — merging two shards that registered the same
    metric binds its help exactly once. Gauges are {e not} merged: they
    are live callbacks closed over [src]'s owner and would outlive it.
    [src] is left unchanged. This is the deterministic join step for
    per-worker registry replicas: folding them in ascending worker order
    yields the same totals as a sequential run, because counter addition
    and histogram absorption are associative and commutative.

    [prefix] (default [""]) is prepended to every folded metric name:
    the namespacing that lets N per-device registries fold into one
    fleet registry without collisions — [stage/<n>/fault_hits] from two
    devices merged under prefixes ["dev/a/"] and ["dev/b/"] stay
    distinguishable instead of summing. With a non-empty prefix the
    self-merge skip does not apply (the prefixed names are new names). *)

val snapshot : t -> (string * string * value) list
(** All metrics — every counter in the set, each gauge read now, each
    histogram — as (name, help, value), sorted by name. *)
