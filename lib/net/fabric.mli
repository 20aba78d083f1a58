(** Co-simulated network fabric: one {!Target.Device} per topology node,
    advanced together against a single virtual clock.

    The fabric is a discrete-event loop over a time-ordered heap. Each
    event is a packet arriving at a device ingress port; processing it
    runs the packet through that device ({!Target.Device.inject}, which
    computes queueing, pipeline and TX serialization times analytically)
    and reads the emission its disposition carries. A packet that
    reaches the wire on a switch-to-switch port is re-scheduled at the
    peer's ingress at [wire_time + link propagation delay]; one that
    leaves on a host-facing port becomes a {e delivery}; anything else
    (program drop, queue drop, injected fault, an emission that reached
    no wire, unconnected port) terminates the packet with a named reason
    at a named device. Because the heap pops events in global time
    order, every device sees its arrivals in nondecreasing time and
    per-device clocks stay consistent with the fabric clock.

    Each probe accumulates a {e trail} — the (device, port, time)
    sequence it traversed — which is the network-scale analogue of a
    single device's span tree, and what {!Localize} bisects over
    (corroborated by per-device counters and spans).

    Devices are full {!Netdebug.Harness} deployments (compiled program,
    agent, controller), so every single-device tool — stage-level
    localization, telemetry export, the management protocol — works
    unchanged on any node of the fabric. *)

type fate =
  | In_flight  (** not yet terminated (run the fabric) *)
  | Delivered of { d_host : int; d_at_ns : float; d_bits : Bitutil.Bitstring.t }
      (** reached a host edge port: host id, arrival time (wire +
          host-link delay), and the bits as transformed by the path *)
  | Lost of { l_device : string; l_reason : string }
      (** terminated inside the fabric at this device *)

type hop = {
  hop_device : int;  (** node id *)
  hop_in_port : int;
  hop_at_ns : float;  (** ingress arrival in fabric virtual time *)
}

type t

val create : Topology.t -> t
(** Deploy one device per node — same router program and device config
    everywhere (ports sized to {!Topology.max_ports}) — compute the
    topology's {!Route.table} once, and install {!Route.entries_for} on
    each device from it. Every device compiles with a faithful toolchain
    ([Sdnet.Quirks.none]): network validation studies the network, not
    the compiler's quirk catalogue.
    @raise Invalid_argument when the topology fails {!Topology.validate}
    or a route install is rejected. *)

val replicate : t -> t
(** An independent fabric over the same topology: every device
    re-deployed via {!Netdebug.Harness.replicate}[ ~faults:true], so
    installed routes {e and} injected stage faults carry over, but no
    mutable state (clocks, counters, queues, probe history) is shared;
    the immutable {!routes} table is.
    This is what each {!Par.Pool} worker drives in a sharded fleet run;
    carrying faults is what keeps verdicts identical across [--jobs]
    values when a perturbation experiment is sharded. *)

val topology : t -> Topology.t

val routes : t -> Route.table
(** The routes every device was installed from: what {!Fleet} and
    {!Localize} walk to predict a probe's path. *)

val device : t -> int -> Netdebug.Harness.t
(** The deployment behind node [id]. *)

val send : t -> src:Topology.host -> ?at_ns:float -> Bitutil.Bitstring.t -> int
(** Schedule a packet from host [src] toward its edge switch; it arrives
    at [max at_ns now + host link delay]. Returns the probe id (dense,
    from 0, reset by {!clear_probes}). Nothing moves until {!run}. *)

val run : t -> unit
(** Drain the event heap: advance all devices through every scheduled
    arrival until no packet is in flight. *)

val fate : t -> int -> fate
val trail : t -> int -> hop list
(** Ingress hops in traversal order (first = the edge switch). *)

val clear_probes : t -> unit
(** Forget terminated probe records and restart probe ids at 0. Device
    state (clocks, counters, routes, faults) is untouched.
    @raise Invalid_argument while probes are still in flight. *)

val inject_fault :
  t -> device:string -> stage:string -> Target.Fault.t -> (unit, string) result
(** Seed a stage fault on one named device (see
    {!Target.Device.inject_fault}). [Error] names an unknown device, or
    a stage the device's pipeline does not have. *)

val registry : t -> Telemetry.Registry.t
(** A fresh fleet-level registry: the fabric's own counters
    ([net/probes_sent], [net/delivered], [net/lost]) plus every device's
    metrics merged under a ["<device>/"] prefix
    ({!Telemetry.Registry.merge}), so [edge-0-0/stage/ma:ipv4_lpm/seen]
    and [edge-1-0/…] stay distinguishable in one export. *)
