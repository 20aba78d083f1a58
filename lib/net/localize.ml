module Device = Target.Device
module Harness = Netdebug.Harness
module Span = Telemetry.Span

type verdict =
  | Healthy
  | No_route
  | Device_fault of {
      f_device : string;
      f_verdict : Netdebug.Localize.verdict;
      f_evidence : Netdebug.Localize.evidence;
    }
  | Link_suspect of { after : string }

type evidence = {
  n_path : string list;
  n_rx_deltas : (string * int64) list;
  n_span_counts : (string * int) list;
  n_count : int;
  n_delivered : int;
  n_bisect_probes : int;
}

let packet_spans_since spans watermark =
  let n = ref 0 in
  Span.iter spans (fun sp ->
      if sp.Span.sp_kind = Span.Packet && sp.Span.sp_id >= watermark then incr n);
  !n

let locate ?(count = 16) fabric ~(src : Topology.host) ~(dst : Topology.host) =
  let topo = Fabric.topology fabric in
  match
    Route.route (Fabric.routes fabric) ~src_edge:src.Topology.h_node
      ~dst_edge:dst.Topology.h_node
  with
  | None ->
      ( No_route,
        {
          n_path = [];
          n_rx_deltas = [];
          n_span_counts = [];
          n_count = count;
          n_delivered = 0;
          n_bisect_probes = 0;
        } )
  | Some path ->
      let names =
        List.map (fun id -> topo.Topology.nodes.(id).Topology.n_name) path
      in
      let devs =
        List.map (fun id -> (Fabric.device fabric id).Harness.device) path
      in
      (* snapshot counters and span state, then force every-packet spans
         for the burst so the trail evidence is complete *)
      let rx_before =
        List.map (fun d -> Stats.Counter.Set.get (Device.counters d) "rx/external") devs
      in
      let saved = List.map (fun d -> Span.sampling (Device.spans d)) devs in
      let marks = List.map (fun d -> Span.issued (Device.spans d)) devs in
      List.iter (fun d -> Device.set_span_sampling d 1) devs;
      let bits = Fleet.probe_bits ~payload_bytes:26 src dst in
      let ids = List.init count (fun _ -> Fabric.send fabric ~src bits) in
      Fabric.run fabric;
      let delivered =
        List.length
          (List.filter
             (fun id ->
               match Fabric.fate fabric id with
               | Fabric.Delivered { d_host; _ } -> d_host = dst.Topology.h_id
               | _ -> false)
             ids)
      in
      let rx_deltas =
        List.map2
          (fun d before ->
            Int64.sub (Stats.Counter.Set.get (Device.counters d) "rx/external") before)
          devs rx_before
      in
      let span_counts =
        List.map2 (fun d mark -> packet_spans_since (Device.spans d) mark) devs marks
      in
      List.iter2 (fun d s -> Device.set_span_sampling d s) devs saved;
      let deltas = Array.of_list rx_deltas in
      let ev probes =
        {
          n_path = names;
          n_rx_deltas = List.combine names rx_deltas;
          n_span_counts = List.combine names span_counts;
          n_count = count;
          n_delivered = delivered;
          n_bisect_probes = probes;
        }
      in
      if delivered = count then (Healthy, ev 0)
      else begin
        (* Bisect for the last device the full burst reached. Ingress
           counts are monotone non-increasing along the path (all probes
           follow the same installed routes), and position 0 is full by
           construction (the fabric injects there). *)
        let full i = deltas.(i) >= Int64.of_int count in
        let probes = ref 0 in
        let last = Array.length deltas - 1 in
        let f =
          if
            last = 0
            ||
            (incr probes;
             full last)
          then last
          else begin
            let lo = ref 0 and hi = ref last in
            while !hi - !lo > 1 do
              let mid = (!lo + !hi) / 2 in
              incr probes;
              if full mid then lo := mid else hi := mid
            done;
            !lo
          end
        in
        let name = List.nth names f in
        let harness = Fabric.device fabric (List.nth path f) in
        let f_verdict, f_evidence = Netdebug.Localize.locate ~count harness ~probe:bits in
        match f_verdict with
        | Netdebug.Localize.Healthy when f < last ->
            (* forwards fine in isolation: the loss is between it and its
               successor *)
            (Link_suspect { after = name }, ev !probes)
        | _ -> (Device_fault { f_device = name; f_verdict; f_evidence }, ev !probes)
      end

let verdict_to_string = function
  | Healthy -> "healthy: full burst delivered"
  | No_route -> "no route between these edges"
  | Device_fault { f_device; f_verdict; _ } ->
      Printf.sprintf "device %s: %s" f_device
        (Netdebug.Localize.verdict_to_string f_verdict)
  | Link_suspect { after } -> Printf.sprintf "link suspect after device %s" after
