(** Rolling-window health evaluation over {!Sampler} windows.

    A health instance holds declarative rules; {!observe} evaluates them
    against each window as it is produced, accumulating typed firing
    evidence. All rates are per {e virtual} second, so verdicts for a
    seeded run are deterministic. *)

type rule_kind =
  | Counter_still of string
      (** the counter must never move (verdict drift, assert failures) *)
  | Rate_below of string * float
      (** counter rate per virtual second must stay at or under the
          bound; a bound of 0 fires on any increment *)
  | Gauge_below of string * float  (** instantaneous gauge bound *)
  | P99_below of string * float
      (** window p99 of a histogram must stay at or under the ceiling *)
  | Ewma_band of { counter : string; band : float; warmup : int }
      (** EWMA-baseline anomaly detection (alpha 0.3) on the counter's
          per-window rate: once [warmup] windows have seeded the
          baseline, a window whose rate deviates more than [band]
          (fractional) from the baseline fires; anomalous windows do not
          update the baseline *)

type rule = { hr_label : string; hr_kind : rule_kind }

val still : label:string -> string -> rule

val rate_below : label:string -> string -> float -> rule

val gauge_below : label:string -> string -> float -> rule

val p99_below : label:string -> string -> float -> rule

val ewma_band : ?warmup:int -> label:string -> string -> float -> rule
(** The EWMA baseline smooths with alpha 0.3; [warmup] defaults to 5
    windows. *)

type firing = {
  fg_rule : string;
  fg_window : int;
  fg_t1_ns : float;
  fg_observed : float;
  fg_limit : float;
  fg_detail : string;
}

type t

val create : rule list -> t

val observe : t -> Sampler.window -> firing list
(** Evaluate every rule against the window; returns (and records) the
    rules that fired on it. *)

val healthy : t -> bool

val firings : t -> firing list
(** All firings so far, oldest first. *)

val windows_seen : t -> int

val to_json : t -> string
(** The [/health] document: verdict, windows seen, per-rule firing counts
    and last observations, plus the first 32 firings with evidence.
    Deterministic for a seeded run. *)

val pp : Format.formatter -> t -> unit

val pp_firing : Format.formatter -> firing -> unit
