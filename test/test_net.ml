(* Tests for the network-scale validation fabric: topology generators and
   their JSON round-trip, link-delay arithmetic in the co-simulated event
   loop, end-to-end fleet reachability, jobs-count invariance of sharded
   verdicts, device-level fault localization, and the two satellites it
   leans on (prefixed registry merges, fault-carrying harness
   replication). *)

module Topology = Net.Topology
module Route = Net.Route
module Fabric = Net.Fabric
module Fleet = Net.Fleet
module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Harness = Netdebug.Harness
module Device = Target.Device
module Fault = Target.Fault
module Registry = Telemetry.Registry
module Counter = Stats.Counter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_valid what topo =
  match Topology.validate topo with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: expected valid topology, got: %s" what e

(* ---------------- topology generators ---------------- *)

let test_fat_tree_invariants () =
  let t = Topology.fat_tree 4 in
  check_valid "fat-tree:4" t;
  check_int "nodes" 20 (Array.length t.Topology.nodes);
  check_int "hosts (k^3/4)" 16 (Array.length t.Topology.hosts);
  (* switch-to-switch only: 16 edge-agg + 16 agg-core *)
  check_int "links" 32 (Array.length t.Topology.links);
  let count role =
    Array.to_list t.Topology.nodes
    |> List.filter (fun (n : Topology.node) -> n.Topology.n_role = role)
    |> List.length
  in
  check_int "edge switches" 8 (count Topology.Edge);
  check_int "aggregation switches" 8 (count Topology.Aggregation);
  check_int "core switches" 4 (count Topology.Core);
  Array.iter
    (fun (n : Topology.node) -> check_int (n.Topology.n_name ^ " ports") 4 n.Topology.n_ports)
    t.Topology.nodes;
  check_int "max ports" 4 (Topology.max_ports t);
  check_int "subnet-owning edges" 8 (List.length (Topology.edges t));
  (* every port of every switch is used exactly once:
     20 switches x 4 ports = 2 x 32 link ends + 16 host ports *)
  check_int "every port claimed" (20 * 4)
    ((2 * Array.length t.Topology.links) + Array.length t.Topology.hosts)

let test_leaf_spine_invariants () =
  let t = Topology.leaf_spine ~spines:4 ~leaves:8 () in
  check_valid "leaf-spine:4x8" t;
  check_int "nodes" 12 (Array.length t.Topology.nodes);
  check_int "links (full bipartite)" 32 (Array.length t.Topology.links);
  check_int "hosts (2 per leaf)" 16 (Array.length t.Topology.hosts);
  check_string "name" "leaf-spine:4x8" t.Topology.t_name;
  (* every leaf uplinks once to every spine *)
  Array.iter
    (fun (l : Topology.link) ->
      let ra = t.Topology.nodes.(l.Topology.l_a).Topology.n_role
      and rb = t.Topology.nodes.(l.Topology.l_b).Topology.n_role in
      check_bool "leaf-spine links cross tiers" true
        ((ra = Topology.Leaf && rb = Topology.Spine)
        || (ra = Topology.Spine && rb = Topology.Leaf)))
    t.Topology.links

let test_validate_rejects_double_port () =
  let t = Topology.single ~hosts:2 () in
  let bad =
    {
      t with
      Topology.hosts =
        Array.map
          (fun (h : Topology.host) -> { h with Topology.h_port = 0 })
          t.Topology.hosts;
    }
  in
  match Topology.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "two hosts on one port must not validate"

let test_json_round_trip () =
  let t = Topology.fat_tree 4 in
  (match Topology.of_json (Topology.to_json t) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok t' ->
      check_bool "json round-trip is structurally identical" true
        (Topology.to_json t = Topology.to_json t');
      check_string "summary survives" (Topology.summary t) (Topology.summary t'));
  let file = Filename.temp_file "topo" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Topology.to_file t file;
      match Topology.of_file file with
      | Error e -> Alcotest.failf "of_file: %s" e
      | Ok t' ->
          check_bool "file round-trip" true (Topology.to_json t = Topology.to_json t'))

(* ---------------- fabric timing ---------------- *)

(* Two fabrics differing only in link propagation delay: a cross-fabric
   path with two switch-to-switch links must arrive later by exactly
   2 x the delay difference — the devices' own timing cancels out. *)
let test_link_delay_arithmetic () =
  let latency_with delay =
    let topo =
      Topology.leaf_spine ~link_delay_ns:delay ~hosts_per_leaf:1 ~spines:1 ~leaves:2 ()
    in
    let fab = Fabric.create topo in
    let src = topo.Topology.hosts.(0) and dst = topo.Topology.hosts.(1) in
    let id = Fabric.send fab ~src (Fleet.probe_bits ~payload_bytes:26 src dst) in
    Fabric.run fab;
    (match Fabric.trail fab id with
    | first :: _ ->
        Alcotest.(check (float 0.0))
          "first hop arrives after the host link delay" src.Topology.h_delay_ns
          first.Fabric.hop_at_ns
    | [] -> Alcotest.fail "empty trail");
    match Fabric.fate fab id with
    | Fabric.Delivered { d_at_ns; d_host; _ } ->
        check_int "delivered to the far host" dst.Topology.h_id d_host;
        d_at_ns
    | _ -> Alcotest.fail "probe not delivered"
  in
  let base = latency_with 500. and slow = latency_with 10_500. in
  Alcotest.(check (float 0.0))
    "2 links x 10 us extra propagation" 20_000. (slow -. base)

(* ---------------- fleet scenarios ---------------- *)

let test_fat_tree_reachability () =
  let fab = Fabric.create (Topology.fat_tree 4) in
  let r = Fleet.run Fleet.Reachability fab in
  check_int "pairs" (16 * 15) r.Fleet.r_pairs;
  check_int "all pairs reachable" r.Fleet.r_pairs r.Fleet.r_passed;
  let counters = Registry.counter_set r.Fleet.r_registry in
  Alcotest.(check int64)
    "one probe per pair" (Int64.of_int r.Fleet.r_pairs)
    (Counter.Set.get counters "net/probes_sent");
  Alcotest.(check int64)
    "every probe delivered" (Int64.of_int r.Fleet.r_pairs)
    (Counter.Set.get counters "net/delivered");
  (* per-device telemetry is namespaced: both core planes carried traffic *)
  check_bool "core-0-0 saw traffic" true
    (Counter.Set.get counters "core-0-0/stage/ma:ipv4_lpm/seen" > 0L);
  check_bool "core-1-0 saw traffic" true
    (Counter.Set.get counters "core-1-0/stage/ma:ipv4_lpm/seen" > 0L)

let test_waypoint_paths_match_routes () =
  let fab = Fabric.create (Topology.leaf_spine ~spines:2 ~leaves:2 ()) in
  let r = Fleet.run Fleet.Waypoint fab in
  check_int "all pairs follow their computed path" r.Fleet.r_pairs r.Fleet.r_passed;
  (* cross-leaf outcomes name a spine waypoint *)
  let crossed =
    Array.to_list r.Fleet.r_outcomes
    |> List.filter (fun (o : Fleet.outcome) ->
           String.length o.Fleet.o_detail > 0
           && o.Fleet.o_hops = 3
           &&
           match String.index_opt o.Fleet.o_detail 's' with
           | Some _ -> true
           | None -> false)
  in
  check_bool "some pairs cross a spine" true (List.length crossed > 0)

(* Every fat-tree:4 pair's waypoint (the top-tier device, which in a
   fat-tree fixes the whole path), hops, TTL and latency: pins the
   deterministic ECMP choice byte for byte. *)
let test_waypoint_golden () =
  let ic = open_in "net_waypoint.golden" in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  let r = Fleet.run Fleet.Waypoint (Fabric.create (Topology.fat_tree 4)) in
  check_string "waypoint report matches golden" golden (Fleet.render_outcomes r)

(* The fat-tree:4 golden sees only two-way ECMP fans, so it pins the
   pick modulo 2; fat-tree:6 has three-way fans. Its 2 862-pair report
   (what [netdebug net --topo fat-tree:6 --scenario waypoint --report]
   writes) is pinned by its MD5. *)
let test_waypoint_digest_fat_tree_6 () =
  let r = Fleet.run Fleet.Waypoint (Fabric.create (Topology.fat_tree 6)) in
  check_int "all pairs follow their predicted path" r.Fleet.r_pairs r.Fleet.r_passed;
  check_string "waypoint report digest" "211362d2a1dfce14ac1587b10fd1a281"
    (Digest.to_hex (Digest.string (Fleet.render_outcomes r)))

let test_jobs_invariance () =
  let topo () = Topology.leaf_spine ~spines:2 ~leaves:4 () in
  let r1 = Fleet.run ~jobs:1 Fleet.Reachability (Fabric.create (topo ())) in
  let r4 = Fleet.run ~jobs:4 Fleet.Reachability (Fabric.create (topo ())) in
  check_int "same pair count" r1.Fleet.r_pairs r4.Fleet.r_pairs;
  check_string "verdicts, hops and latencies identical under sharding"
    (Fleet.render_outcomes r1) (Fleet.render_outcomes r4);
  (* merged fleet counters are sharding-invariant too *)
  let get r name = Counter.Set.get (Registry.counter_set r.Fleet.r_registry) name in
  Alcotest.(check int64)
    "leaf-0 table hits identical" (get r1 "leaf-0/stage/ma:ipv4_lpm/hit")
    (get r4 "leaf-0/stage/ma:ipv4_lpm/hit")

(* ---------------- device-level localization ---------------- *)

let faulted_pair topo spine_name =
  (* a host pair whose computed path traverses the faulted spine *)
  let spine =
    match Topology.node_named topo spine_name with
    | Some n -> n.Topology.n_id
    | None -> Alcotest.failf "no node %s" spine_name
  in
  let hosts = topo.Topology.hosts in
  let found = ref None in
  Array.iter
    (fun (s : Topology.host) ->
      Array.iter
        (fun (d : Topology.host) ->
          if !found = None && s.Topology.h_id <> d.Topology.h_id then
            match
              Route.path topo ~src_edge:s.Topology.h_node ~dst_edge:d.Topology.h_node
            with
            | Some path when List.mem spine path -> found := Some (s, d)
            | _ -> ())
        hosts)
    hosts;
  match !found with
  | Some p -> p
  | None -> Alcotest.failf "no pair routed via %s" spine_name

let test_localize_names_faulted_spine () =
  let topo = Topology.leaf_spine ~spines:2 ~leaves:2 () in
  let fab = Fabric.create topo in
  (match Fabric.inject_fault fab ~device:"spine-1" ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage with
  | Ok () -> ()
  | Error e -> Alcotest.failf "inject_fault: %s" e);
  let src, dst = faulted_pair topo "spine-1" in
  let verdict, ev = Net.Localize.locate fab ~src ~dst in
  (match verdict with
  | Net.Localize.Device_fault { f_device; f_verdict; _ } ->
      check_string "the faulted spine is named exactly" "spine-1" f_device;
      check_string "and the faulty stage inside it"
        "fault localized in stage 'ma:ipv4_lpm'"
        (Netdebug.Localize.verdict_to_string f_verdict)
  | v -> Alcotest.failf "expected Device_fault, got %s" (Net.Localize.verdict_to_string v));
  check_int "nothing delivered" 0 ev.Net.Localize.n_delivered;
  (* counter evidence: the spine saw the full burst, the far leaf none *)
  let delta name = List.assoc name ev.Net.Localize.n_rx_deltas in
  Alcotest.(check int64) "spine ingress saw the burst" 16L (delta "spine-1");
  let last = List.nth ev.Net.Localize.n_path (List.length ev.Net.Localize.n_path - 1) in
  Alcotest.(check int64) "destination leaf saw nothing" 0L (delta last);
  (* span-trail corroboration *)
  check_int "spine recorded a span per probe" 16
    (List.assoc "spine-1" ev.Net.Localize.n_span_counts)

let test_localize_healthy_fabric () =
  let topo = Topology.leaf_spine ~spines:2 ~leaves:2 () in
  let fab = Fabric.create topo in
  let src = topo.Topology.hosts.(0) and dst = topo.Topology.hosts.(3) in
  let verdict, ev = Net.Localize.locate fab ~src ~dst in
  (match verdict with
  | Net.Localize.Healthy -> ()
  | v -> Alcotest.failf "expected Healthy, got %s" (Net.Localize.verdict_to_string v));
  check_int "full burst delivered" ev.Net.Localize.n_count ev.Net.Localize.n_delivered

let test_inject_fault_rejects_unknown_names () =
  let topo = Topology.leaf_spine ~spines:1 ~leaves:2 () in
  let fab = Fabric.create topo in
  let error what = function
    | Ok () -> Alcotest.failf "%s: expected an error" what
    | Error e -> e
  in
  let inject ~device ~stage = Fabric.inject_fault fab ~device ~stage Fault.Drop_at_stage in
  check_string "unknown device is named" "unknown device \"nosuch\""
    (error "device" (inject ~device:"nosuch" ~stage:"ma:ipv4_lpm"));
  let e = error "stage" (inject ~device:"spine-0" ~stage:"nosuchstage") in
  check_bool ("unknown stage is named: " ^ e) true
    (String.starts_with ~prefix:"device spine-0 has no stage \"nosuchstage\"" e);
  Array.iter
    (fun (n : Topology.node) ->
      check_int (n.Topology.n_name ^ " carries no fault") 0
        (List.length (Device.faults (Fabric.device fab n.Topology.n_id).Harness.device)))
    topo.Topology.nodes

(* ---------------- no route by design ---------------- *)

(* leaf-spine 2x3 with leaf-2's uplinks removed: leaf-2 and its two hosts
   are cut off from the rest of the fabric *)
let cut_leaf_spine () =
  let t = Topology.leaf_spine ~spines:2 ~leaves:3 () in
  let cut = 2 in
  {
    t with
    Topology.links =
      Array.of_list
        (List.filter
           (fun (l : Topology.link) -> l.Topology.l_a <> cut && l.Topology.l_b <> cut)
           (Array.to_list t.Topology.links));
  }

let test_no_route_by_design () =
  let topo = cut_leaf_spine () in
  check_valid "leaf-spine 2x3 without leaf-2's uplinks" topo;
  let fab = Fabric.create topo in
  let r = Fleet.run Fleet.Reachability fab in
  check_int "pairs" 30 r.Fleet.r_pairs;
  check_int "every pair passes" 30 r.Fleet.r_passed;
  check_int "pairs across the cut are unrouted by design" 16
    (Array.to_list r.Fleet.r_outcomes
    |> List.filter (fun (o : Fleet.outcome) ->
           o.Fleet.o_detail = "no route by design; probe dropped as expected")
    |> List.length);
  let leaf0_host = topo.Topology.hosts.(0) and leaf2_host = topo.Topology.hosts.(4) in
  (match Net.Localize.locate fab ~src:leaf0_host ~dst:leaf2_host with
  | Net.Localize.No_route, _ -> ()
  | v, _ -> Alcotest.failf "expected No_route, got %s" (Net.Localize.verdict_to_string v));
  List.iter
    (fun (src_edge, dst_edge) ->
      let what = Printf.sprintf "leaf-%d -> leaf-%d" src_edge dst_edge in
      check_bool (what ^ ": no route") true
        (Route.route (Fabric.routes fab) ~src_edge ~dst_edge = None);
      check_bool (what ^ ": no path") true (Route.path topo ~src_edge ~dst_edge = None))
    [ (0, 2); (2, 0) ];
  (* what each connected device really installed: a route to leaf-1's
     /24 but none to leaf-2's *)
  let installs device (prefix, len) =
    P4ir.Runtime.entries (Device.runtime (Fabric.device fab device).Harness.device) "ipv4_lpm"
    |> List.exists (fun (e : P4ir.Entry.t) ->
           e.P4ir.Entry.keys = [ P4ir.Entry.lpm (P4ir.Value.make ~width:32 prefix) len ])
  in
  let subnet id = Option.get topo.Topology.nodes.(id).Topology.n_subnet in
  Array.iter
    (fun (n : Topology.node) ->
      let id = n.Topology.n_id in
      if id <> 2 then begin
        check_bool (n.Topology.n_name ^ " skips leaf-2's /24") false (installs id (subnet 2));
        if id <> 1 then
          check_bool (n.Topology.n_name ^ " routes leaf-1's /24") true (installs id (subnet 1))
      end)
    topo.Topology.nodes

(* ---------------- satellite: prefixed registry merge ---------------- *)

let test_registry_merge_prefix_keeps_devices_distinct () =
  let hit h n =
    let bits = Packet.serialize (Packet.udp_ipv4 ()) in
    for _ = 1 to n do
      ignore
        (Device.inject h.Harness.device ~source:(Device.External 0) bits)
    done
  in
  let h1 = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let h2 = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  Device.inject_fault h1.Harness.device ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
  Device.inject_fault h2.Harness.device ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
  hit h1 3;
  hit h2 5;
  let fleet = Registry.create () in
  Registry.merge ~prefix:"edge-0-0/" ~into:fleet (Device.metrics h1.Harness.device);
  Registry.merge ~prefix:"edge-1-0/" ~into:fleet (Device.metrics h2.Harness.device);
  let get name = Counter.Set.get (Registry.counter_set fleet) name in
  Alcotest.(check int64)
    "device 1 fault hits stay its own" 3L
    (get "edge-0-0/stage/ma:ipv4_lpm/fault_hits");
  Alcotest.(check int64)
    "device 2 fault hits stay its own" 5L
    (get "edge-1-0/stage/ma:ipv4_lpm/fault_hits");
  Alcotest.(check int64) "nothing lands unprefixed" 0L (get "stage/ma:ipv4_lpm/fault_hits");
  (* and the un-prefixed merge still accumulates as before *)
  let flat = Registry.create () in
  Registry.merge ~into:flat (Device.metrics h1.Harness.device);
  Registry.merge ~into:flat (Device.metrics h2.Harness.device);
  Alcotest.(check int64)
    "unprefixed merge sums" 8L
    (Counter.Set.get (Registry.counter_set flat) "stage/ma:ipv4_lpm/fault_hits")

(* ---------------- satellite: fault-carrying replication ---------------- *)

let test_replicate_faults_opt_in () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  Device.inject_fault h.Harness.device ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
  (* default stays off: a replica reproduces the deployment, not the
     perturbation experiment *)
  let plain = Harness.replicate h in
  check_int "default replica carries no faults" 0
    (List.length (Device.faults plain.Harness.device));
  let seeded = Harness.replicate ~faults:true h in
  (match Device.faults seeded.Harness.device with
  | [ ("ma:ipv4_lpm", Fault.Drop_at_stage) ] -> ()
  | fs -> Alcotest.failf "expected the seeded fault, got %d faults" (List.length fs));
  let bits = Packet.serialize (Packet.udp_ipv4 ()) in
  (match Device.inject seeded.Harness.device ~source:(Device.External 0) bits with
  | _, Device.Lost_in_stage "ma:ipv4_lpm" -> ()
  | _ -> Alcotest.fail "seeded replica must drop in the faulted stage");
  match Device.inject plain.Harness.device ~source:(Device.External 0) bits with
  | _, Device.Lost_in_stage _ -> Alcotest.fail "plain replica must not inherit the fault"
  | _ -> ()

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "fat-tree invariants" `Quick test_fat_tree_invariants;
          Alcotest.test_case "leaf-spine invariants" `Quick test_leaf_spine_invariants;
          Alcotest.test_case "validate rejects double port" `Quick
            test_validate_rejects_double_port;
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
        ] );
      ( "fabric",
        [ Alcotest.test_case "link delay arithmetic" `Quick test_link_delay_arithmetic ] );
      ( "fleet",
        [
          Alcotest.test_case "fat-tree:4 full reachability" `Slow
            test_fat_tree_reachability;
          Alcotest.test_case "waypoint paths match routes" `Quick
            test_waypoint_paths_match_routes;
          Alcotest.test_case "fat-tree:4 waypoint golden" `Quick test_waypoint_golden;
          Alcotest.test_case "fat-tree:6 waypoint digest" `Quick
            test_waypoint_digest_fat_tree_6;
          Alcotest.test_case "jobs=1 and jobs=4 verdicts identical" `Quick
            test_jobs_invariance;
        ] );
      ( "localize",
        [
          Alcotest.test_case "names the faulted spine" `Quick
            test_localize_names_faulted_spine;
          Alcotest.test_case "healthy fabric" `Quick test_localize_healthy_fabric;
          Alcotest.test_case "inject_fault rejects unknown names" `Quick
            test_inject_fault_rejects_unknown_names;
        ] );
      ( "no route",
        [ Alcotest.test_case "cut leaf by design" `Quick test_no_route_by_design ] );
      ( "satellites",
        [
          Alcotest.test_case "registry merge prefixes" `Quick
            test_registry_merge_prefix_keeps_devices_distinct;
          Alcotest.test_case "replicate ?faults opt-in" `Quick
            test_replicate_faults_opt_in;
        ] );
    ]
