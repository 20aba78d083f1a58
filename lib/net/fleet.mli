(** Fleet-scale validation: generator/checker pairs at the edge hosts of
    a {!Fabric}, sharded across {!Par.Pool} workers, with verdicts and
    per-device telemetry merged centrally.

    Each scenario enumerates every ordered pair of distinct hosts and
    sends one well-formed UDP/IPv4 probe from source to destination:

    - {e Reachability}: the probe must arrive at the destination host,
      TTL decremented once per switch hop, destination MAC rewritten to
      the host's — end-to-end forwarding correctness.
    - {e Waypoint}: additionally, the device trail must equal the exact
      path {!Route.route} predicts — the probe traversed the fabric
      {e through the right devices}, not merely arrived.

    Determinism across [--jobs]: pair [i] is injected at its own virtual
    epoch ([(i+1) × 1 ms] of fabric time), so its latency and verdict
    depend only on the pair index — never on which worker ran it or what
    ran before it on that worker's fabric. Workers claim pairs through
    {!Par.Pool.map_chunks} (results land at input indices) and each
    drives its own {!Fabric.replicate}; a fleet run therefore produces
    byte-identical {!render_outcomes} for any job count, which CI pins
    with [cmp]. *)

type scenario = Reachability | Waypoint

type outcome = {
  o_index : int;
  o_src : string;  (** source host name *)
  o_dst : string;
  o_ok : bool;
  o_hops : int;  (** switch hops traversed; 0 when nothing was recorded *)
  o_latency_ns : float;  (** injection to host arrival; [nan] when lost *)
  o_detail : string;  (** deterministic one-liner: path / failure reason *)
}

type report = {
  r_topo : string;
  r_scenario : scenario;
  r_jobs : int;
  r_pairs : int;
  r_passed : int;
  r_outcomes : outcome array;  (** indexed by pair order: (src, dst) ascending *)
  r_registry : Telemetry.Registry.t;
      (** fleet counters + per-device metrics from every worker fabric,
          merged under ["<device>/"] prefixes in ascending worker order *)
  r_wall_s : float;
}

val probe_bits :
  payload_bytes:int -> Topology.host -> Topology.host -> Bitutil.Bitstring.t
(** The exact probe a fleet run sends for this (source, destination)
    pair — exposed so {!Localize} re-injects the same packet a failing
    pair reported. *)

val run : ?jobs:int -> ?payload_bytes:int -> scenario -> Fabric.t -> report
(** Run the scenario over [fabric]. [jobs] (default 1) worker domains;
    worker 0 drives [fabric] itself, workers [1..] drive fresh
    {!Fabric.replicate}s (built before the pool starts, so replication
    never races live traffic). [payload_bytes] (default 26) sizes the
    probe's UDP payload. *)

val failures : report -> outcome list
(** Failing outcomes in pair order. *)

val render : report -> string
(** Human summary: verdict line, pass/fail counts, wall time, the first
    10 failures. *)

val render_outcomes : report -> string
(** One line per pair, deterministic for a given topology + scenario
    (excludes wall time and job count) — what [netdebug net --report]
    writes and the jobs-identity CI check compares with [cmp]. *)
