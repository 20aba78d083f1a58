module Registry = Telemetry.Registry

type scenario = Reachability | Waypoint

let scenario_to_string = function
  | Reachability -> "reachability"
  | Waypoint -> "waypoint"

type outcome = {
  o_index : int;
  o_src : string;
  o_dst : string;
  o_ok : bool;
  o_hops : int;
  o_latency_ns : float;
  o_detail : string;
}

type report = {
  r_topo : string;
  r_scenario : scenario;
  r_jobs : int;
  r_pairs : int;
  r_passed : int;
  r_outcomes : outcome array;
  r_registry : Telemetry.Registry.t;
  r_wall_s : float;
}

(* Pair [i] owns virtual time slot [(i+1) * epoch]: wide enough that the
   previous pair's traffic has fully drained on whichever fabric runs it,
   so per-pair timing is a function of the pair index alone. *)
let epoch_ns = 1_000_000.

let initial_ttl = 64L

let probe_bits ~payload_bytes (src : Topology.host) (dst : Topology.host) =
  Packet.serialize
    (Packet.udp_ipv4 ~eth_src:src.Topology.h_mac
       ~eth_dst:(Topology.node_mac src.Topology.h_node)
       ~src:src.Topology.h_ip ~dst:dst.Topology.h_ip ~ttl:initial_ttl ~payload_bytes ())

let pairs_of (topo : Topology.t) =
  let hosts = topo.Topology.hosts in
  let out = ref [] in
  Array.iter
    (fun (s : Topology.host) ->
      Array.iter
        (fun (d : Topology.host) ->
          if s.Topology.h_id <> d.Topology.h_id then out := (s, d) :: !out)
        hosts)
    hosts;
  Array.of_list (List.rev !out)

let path_names topo path =
  List.map (fun id -> topo.Topology.nodes.(id).Topology.n_name) path

let waypoint_of topo path =
  let best = ref (List.hd path) in
  List.iter
    (fun id ->
      if
        Route.tier topo.Topology.nodes.(id).Topology.n_role
        > Route.tier topo.Topology.nodes.(!best).Topology.n_role
      then best := id)
    path;
  topo.Topology.nodes.(!best).Topology.n_name

let run_pair fabric scenario ~payload_bytes i ((src : Topology.host), (dst : Topology.host)) =
  let topo = Fabric.topology fabric in
  Fabric.clear_probes fabric;
  let expected =
    Route.route (Fabric.routes fabric) ~src_edge:src.Topology.h_node
      ~dst_edge:dst.Topology.h_node
  in
  let sent_ns = float_of_int (i + 1) *. epoch_ns in
  let id = Fabric.send fabric ~src ~at_ns:sent_ns (probe_bits ~payload_bytes src dst) in
  Fabric.run fabric;
  let trail = Fabric.trail fabric id in
  let hops = List.length trail in
  let mk ok latency detail =
    {
      o_index = i;
      o_src = src.Topology.h_name;
      o_dst = dst.Topology.h_name;
      o_ok = ok;
      o_hops = hops;
      o_latency_ns = latency;
      o_detail = detail;
    }
  in
  match (Fabric.fate fabric id, expected) with
  | Fabric.Lost { l_device; l_reason }, Some _ ->
      mk false nan (Printf.sprintf "lost at %s: %s" l_device l_reason)
  | Fabric.Lost _, None -> mk true nan "no route by design; probe dropped as expected"
  | Fabric.Delivered { d_host; _ }, None ->
      mk false nan
        (Printf.sprintf "delivered to %s despite no route existing"
           topo.Topology.hosts.(d_host).Topology.h_name)
  | Fabric.In_flight, _ -> mk false nan "probe still in flight after run (fabric bug)"
  | Fabric.Delivered { d_host; d_at_ns; d_bits }, Some path ->
      let latency = d_at_ns -. sent_ns in
      let pkt = Packet.parse d_bits in
      let ttl =
        match Packet.find_ipv4 pkt with Some ip -> ip.Packet.Ipv4.ttl | None -> -1L
      in
      let eth_dst =
        match Packet.find_eth pkt with Some e -> e.Packet.Eth.dst | None -> -1L
      in
      let want_ttl = Int64.sub initial_ttl (Int64.of_int (List.length path)) in
      if d_host <> dst.Topology.h_id then
        mk false latency
          (Printf.sprintf "misdelivered to %s"
             topo.Topology.hosts.(d_host).Topology.h_name)
      else if eth_dst <> dst.Topology.h_mac then
        mk false latency (Printf.sprintf "wrong destination MAC 0x%Lx" eth_dst)
      else if ttl <> want_ttl then
        mk false latency (Printf.sprintf "ttl %Ld after %d hops (want %Ld)" ttl hops want_ttl)
      else
        let got_names = List.map (fun h -> topo.Topology.nodes.(h.Fabric.hop_device).Topology.n_name) trail in
        let want_names = path_names topo path in
        match scenario with
        | Waypoint when got_names <> want_names ->
            mk false latency
              (Printf.sprintf "path %s (want %s)"
                 (String.concat ">" got_names)
                 (String.concat ">" want_names))
        | Waypoint ->
            mk true latency
              (Printf.sprintf "ok: via %s, %d hops, ttl %Ld, %.0f ns"
                 (waypoint_of topo path) hops ttl latency)
        | Reachability ->
            mk true latency
              (Printf.sprintf "ok: %d hops, ttl %Ld, %.0f ns" hops ttl latency)

let run ?(jobs = 1) ?(payload_bytes = 26) scenario fabric =
  let t0 = Unix.gettimeofday () in
  let jobs = max 1 jobs in
  let topo = Fabric.topology fabric in
  let pairs = pairs_of topo in
  (* replicas are built here, sequentially, before any traffic runs —
     workers must never replicate a fabric another worker is driving *)
  let fabrics =
    Array.init jobs (fun w -> if w = 0 then fabric else Fabric.replicate fabric)
  in
  let outcomes =
    Par.Pool.with_pool ~jobs (fun pool ->
        Par.Pool.map_chunks pool ~chunk:8
          (fun ~worker i pair -> run_pair fabrics.(worker) scenario ~payload_bytes i pair)
          pairs)
  in
  let registry = Registry.create () in
  Array.iter (fun f -> Registry.merge ~into:registry (Fabric.registry f)) fabrics;
  let passed = Array.fold_left (fun n o -> if o.o_ok then n + 1 else n) 0 outcomes in
  {
    r_topo = topo.Topology.t_name;
    r_scenario = scenario;
    r_jobs = jobs;
    r_pairs = Array.length pairs;
    r_passed = passed;
    r_outcomes = outcomes;
    r_registry = registry;
    r_wall_s = Unix.gettimeofday () -. t0;
  }

let failures r = Array.to_list r.r_outcomes |> List.filter (fun o -> not o.o_ok)

let render r =
  let max_failures = 10 in
  let b = Buffer.create 256 in
  let fails = failures r in
  Buffer.add_string b
    (Printf.sprintf "%s: %s: %d/%d pairs ok (jobs=%d, %.2f s)\n" r.r_topo
       (scenario_to_string r.r_scenario) r.r_passed r.r_pairs r.r_jobs r.r_wall_s);
  List.iteri
    (fun i o ->
      if i < max_failures then
        Buffer.add_string b
          (Printf.sprintf "  FAIL %s -> %s: %s\n" o.o_src o.o_dst o.o_detail))
    fails;
  (match List.length fails with
  | n when n > max_failures ->
      Buffer.add_string b (Printf.sprintf "  ... and %d more failures\n" (n - max_failures))
  | _ -> ());
  Buffer.contents b

let render_outcomes r =
  let b = Buffer.create (Array.length r.r_outcomes * 48) in
  Buffer.add_string b
    (Printf.sprintf "# %s %s %d pairs\n" r.r_topo (scenario_to_string r.r_scenario)
       r.r_pairs);
  Array.iter
    (fun o ->
      Buffer.add_string b
        (Printf.sprintf "%04d %s %s -> %s: %s\n" o.o_index
           (if o.o_ok then "PASS" else "FAIL")
           o.o_src o.o_dst o.o_detail))
    r.r_outcomes;
  Buffer.contents b
