(** End-to-end deployment of Figure 1: compile a program with the
    SDNet-style toolchain, instantiate the device, install the
    control-plane entries, attach the in-device agent (generator +
    checker) and hand back a host-side controller wired through the
    management channel. *)

type t = {
  bundle : P4ir.Programs.bundle;
  compile_report : Sdnet.Compile.report;
  device : Target.Device.t;
  agent : Agent.t;
  controller : Controller.t;
}

val deploy :
  ?quirks:Sdnet.Quirks.t ->
  ?config:Target.Config.t ->
  ?install_entries:bool ->
  ?span_sampling:int ->
  ?update_clock:(unit -> int64) ->
  P4ir.Programs.bundle ->
  t
(** [quirks] defaults to {!Sdnet.Quirks.default} — the shipped toolchain,
    reject bug included. [install_entries] defaults to true.
    [span_sampling] overrides the device's default 1-in-64 packet span
    sampling (1 = every packet, 0 = off; metrics stay on regardless).
    [update_clock] feeds the device's per-table [update_ns] telemetry
    (see {!Target.Device.create}).
    @raise Invalid_argument when compilation fails. *)

val replicate : ?faults:bool -> t -> t
(** A fresh, independent deployment equivalent to [t]: same bundle,
    compiled under the same quirks and device configuration, same span
    sampling rate, and the same control-plane entries (cloned from [t]'s
    runtime in install order, so priorities resolve identically). The
    replica shares no mutable state with [t] — its device, registers,
    telemetry and channel are its own — which is what lets worker
    domains drive replicas concurrently (see [Par]). Never replicated:
    broken ports ({!Target.Device.set_port_broken} is a test-local
    perturbation, not a deployment fact) and any traffic history.

    [faults] (default [false]) additionally carries [t]'s injected stage
    faults ({!Target.Device.faults}) onto the replica. Off by design for
    parallel validation sweeps — a replica exists to reproduce the
    {e deployment}, not a perturbation experiment — but a network-scale
    fleet replicating a fabric for sharded analysis must preserve a
    seeded device fault in every replica or localization tests would
    only ever see it on one shard (see [Net.Fabric.replicate]). *)

val trace_health : t -> string
(** One-line telemetry health summary: spans retained/evicted and the
    sampling rate. Surfaces ring-buffer eviction so truncated
    observability data is never read as complete. *)

val export_artifacts : t -> dir:string -> string list
(** Write [trace.json] (Chrome trace_event, Perfetto-loadable),
    [spans.jsonl] and [metrics.prom] (Prometheus text exposition) into
    [dir], created with any missing parents. Returns the paths written.
    @raise Sys_error when [dir] cannot be created or a file written. *)

val generator_port : int
(** The internal source port id test packets carry ([ingress_port] seen by
    the program when a packet comes from the generator). *)

val self_check : t -> (string list, string) result
(** E1 (Figure 1) architecture self-check: the injection point bypasses
    the input interfaces, the check point observes packets ahead of the
    output interfaces, and the management channel round-trips. Returns the
    list of verified facts. *)
