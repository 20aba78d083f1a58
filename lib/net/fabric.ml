module Device = Target.Device
module Harness = Netdebug.Harness
module Registry = Telemetry.Registry

type fate =
  | In_flight
  | Delivered of { d_host : int; d_at_ns : float; d_bits : Bitutil.Bitstring.t }
  | Lost of { l_device : string; l_reason : string }

type hop = { hop_device : int; hop_in_port : int; hop_at_ns : float }

type probe = { mutable p_trail : hop list (* reversed *); mutable p_fate : fate }

type port_dest =
  | D_host of Topology.host
  | D_link of { d_peer : int; d_peer_port : int; d_delay_ns : float }
  | D_none

type event = {
  ev_at : float;
  ev_seq : int;  (** FIFO tie-break at equal times: keeps runs deterministic *)
  ev_node : int;
  ev_port : int;
  ev_probe : int;
  ev_bits : Bitutil.Bitstring.t;
}

(* Minimal binary min-heap on (ev_at, ev_seq). The fabric rarely holds
   more than a handful of in-flight events, but the heap keeps [run]
   O(log n) per hop no matter how many probes are batched. *)
module Heap = struct
  type t = { mutable arr : event array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let before a b = a.ev_at < b.ev_at || (a.ev_at = b.ev_at && a.ev_seq < b.ev_seq)

  let push h ev =
    if h.len = Array.length h.arr then begin
      let cap = max 8 (2 * h.len) in
      let arr = Array.make cap ev in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- ev;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before h.arr.(!i) h.arr.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.arr.(p) in
      h.arr.(p) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := p
    done

  (* The earliest event; the heap must not be empty. *)
  let pop h =
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.len && before h.arr.(l) h.arr.(!s) then s := l;
        if r < h.len && before h.arr.(r) h.arr.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = h.arr.(!s) in
          h.arr.(!s) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !s
        end
      done
    end;
    top
end

type t = {
  topo : Topology.t;
  routes : Route.table;  (** immutable: shared with every replica *)
  devices : Harness.t array;
  dest : port_dest array array;  (** [node].(port) — where an emission goes *)
  heap : Heap.t;
  mutable now : float;
  mutable seq : int;
  mutable next_probe : int;
  mutable in_flight : int;
  (* probe ids are dense (0, 1, 2, ... since the last [clear_probes]), so
     the fate store is a growable array indexed by id — the B16 gate
     prices every hop, and a hash lookup per hop is pure overhead *)
  mutable probes : probe array;
  metrics : Registry.t;
  c_sent : Stats.Counter.t;
  c_delivered : Stats.Counter.t;
  c_lost : Stats.Counter.t;
}

let dest_map (topo : Topology.t) =
  let dest =
    Array.map
      (fun (n : Topology.node) -> Array.make n.Topology.n_ports D_none)
      topo.Topology.nodes
  in
  Array.iter
    (fun (l : Topology.link) ->
      dest.(l.Topology.l_a).(l.Topology.l_a_port) <-
        D_link
          { d_peer = l.Topology.l_b; d_peer_port = l.Topology.l_b_port;
            d_delay_ns = l.Topology.l_delay_ns };
      dest.(l.Topology.l_b).(l.Topology.l_b_port) <-
        D_link
          { d_peer = l.Topology.l_a; d_peer_port = l.Topology.l_a_port;
            d_delay_ns = l.Topology.l_delay_ns })
    topo.Topology.links;
  Array.iter
    (fun (h : Topology.host) -> dest.(h.Topology.h_node).(h.Topology.h_port) <- D_host h)
    topo.Topology.hosts;
  dest

let of_devices topo routes devices =
  let metrics = Registry.create () in
  {
    topo;
    routes;
    devices;
    dest = dest_map topo;
    heap = Heap.create ();
    now = 0.;
    seq = 0;
    next_probe = 0;
    in_flight = 0;
    probes = [||];
    metrics;
    c_sent = Registry.counter metrics ~help:"probes sent into the fabric" "net/probes_sent";
    c_delivered =
      Registry.counter metrics ~help:"probes delivered to a host" "net/delivered";
    c_lost = Registry.counter metrics ~help:"probes lost inside the fabric" "net/lost";
  }

let create (topo : Topology.t) =
  (match Topology.validate topo with
  | Ok () -> ()
  | Error e -> invalid_arg ("Net.Fabric.create: invalid topology: " ^ e));
  let config =
    { Target.Config.netfpga_sume with ports = max 1 (Topology.max_ports topo) }
  in
  let bundle = Route.bundle () in
  let routes = Route.create topo in
  let devices =
    Array.map
      (fun (n : Topology.node) ->
        let h =
          Harness.deploy ~quirks:Sdnet.Quirks.none ~config ~install_entries:false bundle
        in
        (match
           P4ir.Runtime.install_all bundle.P4ir.Programs.program
             (Device.runtime h.Harness.device)
             (Route.entries_for routes n.Topology.n_id)
         with
        | Ok () -> ()
        | Error e ->
            invalid_arg
              (Printf.sprintf "Net.Fabric.create: %s: route install failed: %s"
                 n.Topology.n_name e));
        h)
      topo.Topology.nodes
  in
  of_devices topo routes devices

let replicate t =
  of_devices t.topo t.routes (Array.map (Harness.replicate ~faults:true) t.devices)

let topology t = t.topo
let routes t = t.routes
let device t id = t.devices.(id)

let push t ~at ~node ~port ~probe ~bits =
  Heap.push t.heap
    { ev_at = at; ev_seq = t.seq; ev_node = node; ev_port = port; ev_probe = probe;
      ev_bits = bits };
  t.seq <- t.seq + 1

let send t ~(src : Topology.host) ?at_ns bits =
  let base = match at_ns with Some a -> Float.max a t.now | None -> t.now in
  let id = t.next_probe in
  t.next_probe <- id + 1;
  let p = { p_trail = []; p_fate = In_flight } in
  if id >= Array.length t.probes then begin
    let cap = max 16 (2 * Array.length t.probes) in
    let arr = Array.make cap p in
    Array.blit t.probes 0 arr 0 (Array.length t.probes);
    t.probes <- arr
  end;
  t.probes.(id) <- p;
  t.in_flight <- t.in_flight + 1;
  push t ~at:(base +. src.Topology.h_delay_ns) ~node:src.Topology.h_node
    ~port:src.Topology.h_port ~probe:id ~bits;
  Stats.Counter.incr t.c_sent;
  id

let probe_exn t id =
  if id >= 0 && id < t.next_probe then t.probes.(id)
  else invalid_arg (Printf.sprintf "Net.Fabric: unknown probe id %d" id)

let terminate t p fate =
  p.p_fate <- fate;
  t.in_flight <- t.in_flight - 1;
  match fate with
  | Delivered _ -> Stats.Counter.incr t.c_delivered
  | Lost _ -> Stats.Counter.incr t.c_lost
  | In_flight -> ()

let lost t p node reason =
  terminate t p
    (Lost { l_device = t.topo.Topology.nodes.(node).Topology.n_name; l_reason = reason })

(* Where each output of the event's device goes: a host, the next link,
   or nowhere. *)
let rec forward t p ev = function
  | [] -> ()
  | (o : Device.output) :: rest ->
      (match t.dest.(ev.ev_node).(o.Device.o_port) with
      | D_host h ->
          terminate t p
            (Delivered
               {
                 d_host = h.Topology.h_id;
                 d_at_ns = o.Device.o_wire_time_ns +. h.Topology.h_delay_ns;
                 d_bits = o.Device.o_bits;
               })
      | D_link { d_peer; d_peer_port; d_delay_ns } ->
          push t ~at:(o.Device.o_wire_time_ns +. d_delay_ns) ~node:d_peer ~port:d_peer_port
            ~probe:ev.ev_probe ~bits:o.Device.o_bits
      | D_none ->
          lost t p ev.ev_node (Printf.sprintf "emitted on unconnected port %d" o.Device.o_port));
      forward t p ev rest

let run t =
  while t.heap.Heap.len > 0 do
    let ev = Heap.pop t.heap in
    if ev.ev_at > t.now then t.now <- ev.ev_at;
    let p = t.probes.(ev.ev_probe) in
    p.p_trail <-
      { hop_device = ev.ev_node; hop_in_port = ev.ev_port; hop_at_ns = ev.ev_at } :: p.p_trail;
    let dev = (t.devices.(ev.ev_node)).Harness.device in
    let _, disp =
      Device.inject dev ~source:(Device.External ev.ev_port) ~at_ns:ev.ev_at ev.ev_bits
    in
    match disp with
    | Device.Dropped_pipeline reason -> lost t p ev.ev_node ("dropped by program: " ^ reason)
    | Device.Dropped_queue -> lost t p ev.ev_node "dropped at the input queue"
    | Device.Lost_in_stage stage -> lost t p ev.ev_node ("lost in stage " ^ stage)
    | Device.Emitted _ -> (
        (* drained after every inject, so these outputs belong to this
           packet alone (the device emits at most one copy) *)
        match Device.outputs dev with
        | [] -> lost t p ev.ev_node "emitted but never reached a wire"
        | outs -> forward t p ev outs)
  done

let fate t id = (probe_exn t id).p_fate
let trail t id = List.rev (probe_exn t id).p_trail

let clear_probes t =
  if t.in_flight > 0 then
    invalid_arg "Net.Fabric.clear_probes: probes still in flight (run the fabric first)";
  (* the array is reused; [probe_exn] bounds ids by [next_probe], so the
     stale records past index 0 are unreachable *)
  t.next_probe <- 0

let inject_fault t ~device ~stage fault =
  match Topology.node_named t.topo device with
  | None -> Error (Printf.sprintf "unknown device %S" device)
  | Some n ->
      let dev = t.devices.(n.Topology.n_id).Harness.device in
      let stages = Target.Pipeline.stage_names (Device.pipeline dev) in
      if List.mem stage stages then Ok (Device.inject_fault dev ~stage fault)
      else
        Error
          (Printf.sprintf "device %s has no stage %S (stages: %s)" device stage
             (String.concat ", " stages))

let registry t =
  let r = Registry.create () in
  Registry.merge ~into:r t.metrics;
  Array.iteri
    (fun i h ->
      Registry.merge
        ~prefix:(t.topo.Topology.nodes.(i).Topology.n_name ^ "/")
        ~into:r
        (Device.metrics h.Harness.device))
    t.devices;
  r
