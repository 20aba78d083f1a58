(** An OSNT-style external network tester.

    Attaches to the device's {e external ports only} — the defining
    limitation the paper's Figure 2 assigns to this class of tool. It can
    send on a port, capture what comes out of the ports, timestamp for
    latency, and rate-limit itself to the interface speed. It cannot:
    inject past the input interfaces, observe the check point, read stage
    counters or device status, or see packets addressed to broken or
    non-physical ports. Of each inject's disposition it reads only the
    on-wire half — the emission, when [o_on_wire] says it reached a
    wire — and never a drop reason or an emission that reached no wire;
    nothing in this module touches the other APIs. *)

type t

val attach : Target.Device.t -> t

val port_rate_gbps : t -> float
(** The per-interface line rate that bounds everything this tester can
    offer (10 Gb/s on the SUME model). *)

val send_and_observe :
  t -> port:int -> Bitutil.Bitstring.t -> (int * Bitutil.Bitstring.t) list
(** Transmit one packet into [port]; return what it put on a wire, on
    any external port, as (port, bits): one packet or none.
    @raise Invalid_argument for a non-physical port. *)

(** A functional test case from the external point of view. *)
type case = {
  c_name : string;
  c_port : int;
  c_packet : Bitutil.Bitstring.t;
  c_expect : (int * Bitutil.Bitstring.t) option;
      (** expected (port, bits); [None] = expect nothing to come out.
          Note the tester cannot distinguish "dropped in the parser" from
          "dropped in ingress" from "swallowed by a fault" — it only sees
          silence. *)
}

type case_result = { r_name : string; r_pass : bool; r_got : string }

val run_cases : t -> case list -> case_result list

type perf = {
  p_sent : int;
  p_received : int;
  p_offered_gbps : float;  (** after interface-rate clamping *)
  p_achieved_gbps : float;
  p_achieved_mpps : float;
  p_lat_p50_ns : float;
  p_lat_p99_ns : float;
}

val load_test :
  t -> port:int -> ?packets:int -> offered_gbps:float -> Bitutil.Bitstring.t -> perf
(** Offered load is clamped to {!port_rate_gbps}: an external tester
    cannot out-run the interface it is plugged into. *)
