(** Streaming histogram with exact retention of small samples and
    logarithmic binning beyond, used for latency distributions.

    Values are non-negative floats (we use nanoseconds). Percentile queries
    are upper bounds of the containing bin, so reported quantiles never
    understate latency.

    Storage covers only the span of bins that has been populated, so a
    histogram costs a few dozen words rather than one word per bin, and
    [add] allocates nothing once its bin lies inside that span. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** 0 when empty (never the internal +inf fold identity). *)

val max_value : t -> float
(** 0 when empty. *)

val stddev : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]]. 0 when empty. *)

val merge : t -> t -> t
(** New histogram holding both datasets. *)

val absorb : t -> t -> unit
(** [absorb a b] adds [b]'s dataset into [a] in place, leaving [b]
    untouched. Use when [a] is a live handle held by its owner (e.g. a
    registered device histogram) and replacing it would orphan future
    updates. [a] and [b] must be distinct. *)

val copy : t -> t
(** Independent snapshot: later [add]s to either side do not affect the
    other. Used by the observability sampler to window a live histogram;
    its size is that of the populated bin span. *)

val delta : since:t -> t -> t
(** [delta ~since cur] is the dataset added to [cur] after [since] was
    [copy]ed from it. Bin counts, [count], [total] and [stddev] inputs are
    exact; [min_value]/[max_value] are bin-bound approximations because the
    cumulative extremes do not record which window they landed in.
    [percentile] on the result reports window quantiles. *)

val clear : t -> unit
