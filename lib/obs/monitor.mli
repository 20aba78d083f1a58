(** Status monitoring (the paper's use-case 6) folded into the health
    plane: periodic [Read_status] snapshots taken while paced live
    traffic flows are synthesized into {!Sampler.window}s (cumulative
    counters become per-window deltas under [status/*] names) and judged
    by {!Health} rules instead of printed raw. *)

type result = {
  mo_snapshots : Netdebug.Wire.status_summary list;
  mo_health : Health.t;
}

val run :
  ?period_packets:int ->
  ?samples:int ->
  ?load:float ->
  Netdebug.Harness.t ->
  background:Bitutil.Bitstring.t ->
  result
(** Drive {!Netdebug.Usecases.Status.monitor} with the same knobs
    ([samples] snapshots every [period_packets] packets at [load] of
    line rate) and evaluate the synthesized windows. Each consecutive
    snapshot pair becomes one window carrying [status/packets_in],
    [status/packets_out], [status/queue_drops] and
    [status/pipeline_drops] deltas and a [status/queue_depth] gauge; the
    rules are queue-drops still, pipeline-drops still, and a queue depth
    bound of half the RX ring. *)

val healthy : result -> bool

val render : result -> string
(** Snapshot table plus the health verdict line. *)
