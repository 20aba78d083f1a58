module Device = Target.Device
module Config = Target.Config
module Bitstring = Bitutil.Bitstring

type t = { device : Device.t }

let attach device = { device }

let port_rate_gbps t = Config.port_rate_gbps (Device.config t.device)

let check_port t port =
  let ports = (Device.config t.device).Config.ports in
  if port < 0 || port >= ports then
    invalid_arg (Printf.sprintf "Osnt: no such interface %d (device has %d)" port ports)

(* The external view of one inject: the emission if it reached a wire,
   silence otherwise, whatever the reason. *)
let on_wire = function
  | _, Device.Emitted o when o.Device.o_on_wire -> Some o
  | _ -> None

let send_and_observe t ~port bits =
  check_port t port;
  match on_wire (Device.inject t.device ~source:(Device.External port) bits) with
  | Some o -> [ (o.Device.o_port, o.Device.o_bits) ]
  | None -> []

type case = {
  c_name : string;
  c_port : int;
  c_packet : Bitstring.t;
  c_expect : (int * Bitstring.t) option;
}

type case_result = { r_name : string; r_pass : bool; r_got : string }

let describe = function
  | [] -> "nothing observed"
  | outs ->
      String.concat "; "
        (List.map
           (fun (p, b) -> Printf.sprintf "port %d (%d bytes)" p (Bitstring.byte_length b))
           outs)

let run_cases t cases =
  List.map
    (fun case ->
      let got = send_and_observe t ~port:case.c_port case.c_packet in
      let pass =
        match (case.c_expect, got) with
        | None, [] -> true
        | Some (port, bits), [ (gp, gb) ] -> gp = port && Bitstring.equal bits gb
        | Some _, _ | None, _ -> false
      in
      { r_name = case.c_name; r_pass = pass; r_got = describe got })
    cases

type perf = {
  p_sent : int;
  p_received : int;
  p_offered_gbps : float;
  p_achieved_gbps : float;
  p_achieved_mpps : float;
  p_lat_p50_ns : float;
  p_lat_p99_ns : float;
}

let load_test t ~port ?(packets = 2000) ~offered_gbps bits =
  check_port t port;
  let offered = min offered_gbps (port_rate_gbps t) in
  let pkt_bits = float_of_int (Bitstring.byte_length bits * 8) in
  let interval_ns = pkt_bits /. offered in
  let base = Device.now_ns t.device in
  let lat = Stats.Histogram.create () in
  let rate = Stats.Rate.create () in
  for i = 0 to packets - 1 do
    match
      on_wire
        (Device.inject t.device ~source:(Device.External port)
           ~at_ns:(base +. (float_of_int i *. interval_ns))
           bits)
    with
    | Some o ->
        (* the tester timestamps on the wire: TX queueing included *)
        Stats.Histogram.add lat (o.Device.o_wire_time_ns -. o.Device.o_in_time_ns);
        Stats.Rate.record rate ~now_ns:o.Device.o_wire_time_ns
          ~bytes:(Bitstring.byte_length o.Device.o_bits)
    | None -> ()
  done;
  {
    p_sent = packets;
    p_received = Stats.Histogram.count lat;
    p_offered_gbps = offered;
    p_achieved_gbps = Stats.Rate.gbps rate;
    p_achieved_mpps = Stats.Rate.packets_per_sec rate /. 1e6;
    p_lat_p50_ns = Stats.Histogram.percentile lat 50.0;
    p_lat_p99_ns = Stats.Histogram.percentile lat 99.0;
  }
