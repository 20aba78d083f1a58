(* Workload [fleet]: Net.Fleet.run Reachability on a k=6 fat-tree (45
   devices, 54 hosts, 2 862 ordered host pairs), one job. Unit: one host
   pair. The seed sizes the probes' UDP payload.

   k=6 rather than k=8: Fleet.run always sweeps every pair, and a k=8
   sweep (16 256 pairs) is one 2.5 s call. On a shared host whose speed
   moves in phases, its best repetition moved 22% between two ten-run
   batches, where the other workloads' 0.3 s repetitions moved under 2%.
   A k=6 sweep takes about as long as they do. *)

open Probe
module Topology = Net.Topology
module Fabric = Net.Fabric
module Fleet = Net.Fleet
module Route = Net.Route

let topology () = Topology.fat_tree 6

let payload_bytes seed = 16 + (abs (seed * 37) mod 241)

let run ~seed ~seconds =
  let payload_bytes = payload_bytes seed in
  repeat ~seconds ~min_reps:3
    ~setup:(fun _ -> Fabric.create (topology ()))
    ~units:(fun _ fab ->
      let r = Fleet.run ~jobs:1 ~payload_bytes Fleet.Reachability fab in
      (r.Fleet.r_pairs, r.Fleet.r_pairs - r.Fleet.r_passed))

(* ------------------------------------------------------------------ *)
(* Traced replica                                                      *)
(* ------------------------------------------------------------------ *)

(* Fleet.run's per-pair epochs and reachability verdict *)
let epoch_ns = 1_000_000.
let initial_ttl = 64L

let pairs (topo : Topology.t) =
  let hosts = Array.to_list topo.Topology.hosts in
  List.concat_map
    (fun (s : Topology.host) ->
      List.filter_map
        (fun (d : Topology.host) -> if s.Topology.h_id <> d.Topology.h_id then Some (s, d) else None)
        hosts)
    hosts

(* Fleet.run's loop at one job with every public call timed; returns
   (pairs passed, switch hops traversed). *)
let replica fab ~payload_bytes ~route ~forward ~parse =
  let topo = Fabric.topology fab in
  let passed = ref 0 and hops = ref 0 in
  List.iteri
    (fun i ((src : Topology.host), (dst : Topology.host)) ->
      Fabric.clear_probes fab;
      let src_edge = src.Topology.h_node and dst_edge = dst.Topology.h_node in
      let expected = time route (fun () -> Route.path topo ~src_edge ~dst_edge) in
      let at_ns = float_of_int (i + 1) *. epoch_ns in
      let bits = Fleet.probe_bits ~payload_bytes src dst in
      let id =
        time forward (fun () ->
            let id = Fabric.send fab ~src ~at_ns bits in
            Fabric.run fab;
            id)
      in
      hops := !hops + List.length (Fabric.trail fab id);
      let ok =
        match (Fabric.fate fab id, expected) with
        | Fabric.Delivered { d_host; d_bits; _ }, Some path ->
            let pkt = time parse (fun () -> Packet.parse d_bits) in
            let ttl =
              match Packet.find_ipv4 pkt with Some ip -> ip.Packet.Ipv4.ttl | None -> -1L
            in
            let mac = match Packet.find_eth pkt with Some e -> e.Packet.Eth.dst | None -> -1L in
            d_host = dst.Topology.h_id
            && mac = dst.Topology.h_mac
            && ttl = Int64.sub initial_ttl (Int64.of_int (List.length path))
        | Fabric.Lost _, None -> true
        | _ -> false
      in
      if ok then incr passed)
    (pairs topo);
  (!passed, !hops)

let traced ~seed =
  let payload_bytes = payload_bytes seed in
  let create = layer "net.fabric.create" in
  let fab_ref = time create (fun () -> Fabric.create (topology ())) in
  let fab_rep = time create (fun () -> Fabric.create (topology ())) in
  let t0 = now_ns () in
  let r = Fleet.run ~jobs:1 ~payload_bytes Fleet.Reachability fab_ref in
  let untraced_ns = now_ns () - t0 in
  let hops_ref = Array.fold_left (fun n o -> n + o.Fleet.o_hops) 0 r.Fleet.r_outcomes in
  let route = layer "net.route.path" in
  let forward = layer "net.fabric.forward" in
  let parse = layer "packet.parse" in
  let t1 = now_ns () in
  let passed, hops = replica fab_rep ~payload_bytes ~route ~forward ~parse in
  let traced_ns = now_ns () - t1 in
  if passed <> r.Fleet.r_passed || hops <> hops_ref then
    raise
      (Replica_diverged
         (Printf.sprintf "fleet replica: %d passed, %d hops; Fleet.run: %d passed, %d hops"
            passed hops r.Fleet.r_passed hops_ref));
  let top = [ route; forward; parse ] in
  {
    tr_units = r.Fleet.r_pairs;
    tr_failed = r.Fleet.r_pairs - r.Fleet.r_passed;
    tr_layers = top @ [ create ];
    tr_counts = [ ("fleet.hops", float_of_int hops_ref) ];
    tr_residual = residual ~e2e_ns:traced_ns top;
    tr_unisolated =
      "Fleet.run's per-pair loop: Fleet.probe_bits, Fabric.clear_probes, Fabric.trail and \
       Fabric.fate";
    tr_overhead = float_of_int traced_ns /. float_of_int untraced_ns;
  }
