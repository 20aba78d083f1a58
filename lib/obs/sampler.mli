(** Snapshot streamer: samples a {!Telemetry.Registry} at configurable
    virtual-time intervals into [window]s — per-window counter deltas,
    current gauge values, windowed histogram datasets — and renders each
    window as one delta-encoded JSONL line.

    Counter semantics are per-window deltas (a counter absent from
    [w_counters] did not move). Gauges are instantaneous values at the
    sample point, all of them. Histograms are true window datasets
    ({!Stats.Histogram.delta} against a retained copy), so [p99] of a
    window reflects only that window's samples. *)

type window = {
  w_seq : int;
  w_t0_ns : float;  (** nominal window start (previous boundary) *)
  w_t1_ns : float;  (** actual sample time *)
  w_counters : (string * int64) list;  (** non-zero deltas, name-sorted *)
  w_gauges : (string * float) list;  (** every gauge, name-sorted *)
  w_hists : (string * Stats.Histogram.t) list;
      (** non-empty window datasets, name-sorted *)
}

type t

val create :
  ?interval_ns:float -> ?sink:(string -> unit) -> Telemetry.Registry.t -> start_ns:float -> t
(** [interval_ns] (default 100 us of virtual time) is the sampling period;
    [sink] receives each JSONL line as it is produced (default: an
    internal buffer read back with {!jsonl} — pass your own to stream to
    a file and keep memory flat on unbounded runs). Windows are not
    retained: each goes to the caller and the sink. *)

val tick : t -> now_ns:float -> window option
(** Cheap boundary check — one float compare when no sample is due.
    Crossing the boundary takes one sample covering the whole elapsed
    span (late ticks widen the window rather than backfilling). *)

val sample : t -> now_ns:float -> window
(** Force a sample now, regardless of the boundary. *)

val counter_delta : window -> string -> int64
(** 0 when the counter did not move in the window. *)

val gauge_value : window -> string -> float option

val hist_window : window -> string -> Stats.Histogram.t option

val jsonl : t -> string
(** Contents of the internal JSONL buffer (empty when a [sink] was
    supplied at creation). *)
