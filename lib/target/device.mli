(** An instantiated {!Pipeline}: runtime table state, persistent registers,
    interface queues, counters, per-packet spans, and a virtual clock.
    Packets run through the pipeline's program staged to closures
    ({!P4ir.Compilecore}), quirk hooks baked in.

    The clock is event-driven — there is no per-cycle ticking anywhere.
    Each packet's pipeline-exit time is computed analytically at injection:

      entry  = max(arrival, pipeline_free) + ceil(bytes / bus) * cycle_ns
      exit   = entry + total_latency_cycles * cycle_ns
      wire   = max(exit, port_free) + bytes * 8 / port_rate_gbps

    so {!advance_to_ns} merely drains queue entries whose deadline has
    passed, in O(queued packets) however far time jumps.

    Structural fidelity to the NetDebug architecture: injection happens
    after the input interfaces ({!source} records whether a packet came
    from a physical port or the internal generator), the check tap
    observes every emission before the output interfaces (including
    egress to non-physical or broken ports), and an emission's
    [o_on_wire] says whether it went on to reach a wire. The disposition
    {!inject} returns is the only per-packet result: the device keeps no
    record of past emissions. *)

type source = External of int | Generator

val generator_port : int
(** The ingress port a [Generator] packet carries: 510, a non-physical
    port one below the 511 drop port. *)

type output = {
  o_port : int;  (** egress_spec as the pipeline computed it *)
  o_bits : Bitutil.Bitstring.t;
  o_in_time_ns : float;  (** arrival at the device *)
  o_out_time_ns : float;  (** pipeline exit — when the check tap sees it *)
  o_on_wire : bool;
      (** it reached a wire: a healthy physical port with TX buffer room *)
  o_wire_time_ns : float;
      (** last bit on the wire, after TX serialization; [o_out_time_ns]
          when it reached none *)
}

type disposition =
  | Emitted of output  (** reached the check point; [o_on_wire] says if a wire too *)
  | Dropped_pipeline of string  (** program semantics: "parser:<err>", "ingress", "egress" *)
  | Dropped_queue  (** tail-dropped at the full input buffer *)
  | Lost_in_stage of string  (** swallowed by an injected fault *)

type status = {
  st_time_ns : float;
  st_packets_in : int64;
  st_packets_out : int64;  (** emissions seen at the check point *)
  st_packets_wire : int64;
      (** emissions that reached a wire: the sum of the per-port
          [tx/port<p>/serialization_ns] histogram counts *)
  st_queue_drops : int64;  (** input-buffer and TX tail drops *)
  st_pipeline_drops : int64;
  st_queue_depth : int;  (** packets currently buffered, all queues *)
  st_stage_seen : (string * int64) list;
}

type t

val create : ?update_clock:(unit -> int64) -> Pipeline.t -> t
(** Every table exports a [table/<name>/entries] gauge and a
    [table/<name>/update_ns] histogram of control-plane update latency.
    [update_clock] supplies the nanosecond timestamps for the latter
    (e.g. a monotonic wall clock); without it updates are still counted
    but their durations read 0, so fully deterministic runs stay
    deterministic. *)

val pipeline : t -> Pipeline.t

val config : t -> Config.t

val runtime : t -> P4ir.Runtime.t
(** Table state; install entries here. *)

val registers : t -> P4ir.Regstate.t
(** Persistent register state (survives across packets). *)

val counters : t -> Stats.Counter.Set.t
(** "rx/external", "rx/generator", "drop/queue", "drop/txq<p>",
    "stage/<name>/seen" (+ "/hit", "/miss" on match-action stages), … *)

val metrics : t -> Telemetry.Registry.t
(** The registry wrapping {!counters}, plus gauges (queue depths, stage
    latencies) and histograms ("pipeline/latency_ns", "rxq/wait_ns",
    "tx/port<p>/serialization_ns"). Single registration point — render it
    with {!Telemetry.Export.prometheus}. *)

val spans : t -> Telemetry.Span.t
(** Per-packet span store. Each sampled traversal becomes a tree rooted
    at a ["packet"] span with ["rx_queue"], ["parse"],
    ["stage[i]:<name>"], ["deparse"] and ["tx[port]"] children, stamped
    in virtual time. *)

val set_span_sampling : t -> int -> unit
(** Record full span trees for 1-in-[n] injected packets (default
    1-in-64; the first packet after a change is always sampled). [n <= 0]
    disables spans entirely. Metrics are unaffected. *)

val now_ns : t -> float

val inject : t -> source:source -> ?at_ns:float -> Bitutil.Bitstring.t -> int * disposition
(** Run one packet through the device; returns its packet id (the
    [packet] of its spans) and fate.
    [at_ns] below the current clock is clamped to it; when omitted the
    packet arrives back-to-back, i.e. the moment the pipeline can accept
    it (the clock advances, nothing queues). *)

val advance_to_ns : t -> float -> unit
(** Move the clock forward (never backward) and drain departed queue
    entries. Idempotent at a fixed timestamp. *)

val inject_batch :
  t ->
  source:source ->
  ?reset_registers:bool ->
  Bitutil.Bitstring.t array ->
  disposition array
(** Drive a whole vector batch through the pipeline back-to-back with a
    single {!quiesce} at the end instead of one per packet: the batched
    hot path of the fuzz oracle and the soak loop. Each packet arrives
    the moment the pipeline can accept it (as {!inject} with [at_ns]
    omitted), so the clock self-advances and nothing queues.
    [reset_registers] (default false) zeroes the persistent register
    state before each packet, giving every vector the isolated-state
    semantics of a fresh device at batch speed. Results land at their
    input index. Check taps, coverage taps, counters and spans fire
    exactly as they do for packet-at-a-time injection. *)

val quiesce : t -> unit
(** Advance the clock past every in-flight packet (pipeline entry bus and
    all TX serializers), draining the interface queues. Without this, a
    caller that repeatedly injects at the current clock — e.g. thousands
    of single-shot generator runs — never moves time forward, so the RX
    ring retains every completed entry and eventually tail-drops. *)

val outputs : t -> output list
(** Always [[]]: the device keeps no emissions. A stub kept only because
    [perfbench/fuzz_wl.ml] still calls it; drop that call, then this. *)

val set_check_tap : t -> (output -> unit) -> unit
(** Observer between pipeline exit and the output interfaces. It sees
    each emission once, after the TX side has stamped [o_on_wire] and
    [o_wire_time_ns]. *)

(** Coverage taps: behavioural-event observers for coverage-guided testing
    ({!Fuzz}). [tp_parse] fires once per packet with the parser outcome
    (visited states, accept/reject), [tp_table] on every table apply with
    the hit/miss and chosen action, [tp_disposition] with the packet's
    final fate (including queue drops). *)
type taps = {
  tp_parse : P4ir.Parse.outcome -> unit;
  tp_table : table:string -> hit:bool -> action:string -> unit;
  tp_disposition : disposition -> unit;
}

val set_taps : t -> taps option -> unit
(** Install (or with [None] remove) the coverage taps. Unset taps cost the
    hot path one load-and-branch per event. *)

val set_port_broken : t -> int -> bool -> unit
(** A broken port emits nothing externally; the check tap still sees the
    traffic — the asymmetry NetDebug's self-check exploits. *)

val inject_fault : t -> stage:string -> Fault.t -> unit
(** Install a fault at a named stage (replacing any previous one there).
    @raise Invalid_argument for a stage the pipeline does not have. *)

val clear_faults : t -> unit

val faults : t -> (string * Fault.t) list
(** Currently injected faults as (stage, fault), in pipeline stage order.
    What a caller needs to carry a device's seeded perturbations onto a
    replica (see [Harness.replicate ?faults]). *)

val status : t -> status
