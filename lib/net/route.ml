module Entry = P4ir.Entry
module Value = P4ir.Value
module Programs = P4ir.Programs

let bundle () =
  {
    Programs.program = Programs.basic_router.Programs.program;
    entries = [];
    description = "fleet-wide IPv4 LPM router (routes installed per device by Net.Fabric)";
  }

(* For every node, its links as (peer, port), ascending by (peer, port):
   the order the ECMP pick indexes into. A node has a handful of ports,
   so each list is kept sorted by insertion as links are added. *)
let adjacency (topo : Topology.t) =
  let n = Array.length topo.Topology.nodes in
  let degree = Array.make n 0 in
  Array.iter
    (fun (l : Topology.link) ->
      degree.(l.Topology.l_a) <- degree.(l.Topology.l_a) + 1;
      degree.(l.Topology.l_b) <- degree.(l.Topology.l_b) + 1)
    topo.Topology.links;
  let adj = Array.map (fun d -> Array.make d (0, 0)) degree in
  let filled = Array.make n 0 in
  let add node peer port =
    let a = adj.(node) in
    let i = ref filled.(node) in
    while
      !i > 0
      &&
      let p, pt = a.(!i - 1) in
      peer < p || (peer = p && port < pt)
    do
      a.(!i) <- a.(!i - 1);
      decr i
    done;
    a.(!i) <- (peer, port);
    filled.(node) <- filled.(node) + 1
  in
  Array.iter
    (fun (l : Topology.link) ->
      add l.Topology.l_a l.Topology.l_b l.Topology.l_a_port;
      add l.Topology.l_b l.Topology.l_a l.Topology.l_b_port)
    topo.Topology.links;
  adj

(* One destination's next hops: from node [u], [port.(u)] leads to
   [peer.(u)], one hop closer to the destination; both are -1 at the
   destination itself and wherever it is unreachable. *)
type column = { port : int array; peer : int array }

(* One BFS from [dst], then deterministic ECMP: among [u]'s neighbours
   one hop closer, in (peer, port) order, pick number
   [(u * 31 + dst) mod count], a hash of (node, destination) that spreads
   traffic across the fan the way a real fabric's hashing would. *)
let column adj ~dst =
  let n = Array.length adj in
  let dist = Array.make n max_int in
  let queue = Array.make n dst in
  dist.(dst) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = 0 to Array.length adj.(u) - 1 do
      let v, _ = adj.(u).(k) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  let port = Array.make n (-1) and peer = Array.make n (-1) in
  for u = 0 to n - 1 do
    if u <> dst && dist.(u) <> max_int then begin
      let a = adj.(u) and one_closer = dist.(u) - 1 in
      let count = ref 0 in
      for k = 0 to Array.length a - 1 do
        if dist.(fst a.(k)) = one_closer then incr count
      done;
      let pick = ref (((u * 31) + dst) mod !count) in
      for k = 0 to Array.length a - 1 do
        let v, p = a.(k) in
        if dist.(v) = one_closer then begin
          if !pick = 0 then begin
            port.(u) <- p;
            peer.(u) <- v
          end;
          decr pick
        end
      done
    end
  done;
  { port; peer }

(* Every next hop strictly shortens the distance, so the walk ends. *)
let walk c ~src ~dst =
  if src <> dst && c.peer.(src) < 0 then None
  else
    let rec go u = if u = dst then [ u ] else u :: go c.peer.(u) in
    Some (go src)

type table = {
  topo : Topology.t;
  columns : column option array;  (* by node id: [Some] for a subnet-owning edge *)
}

let create (topo : Topology.t) =
  let adj = adjacency topo in
  {
    topo;
    columns =
      Array.map
        (fun (n : Topology.node) ->
          Option.map (fun _ -> column adj ~dst:n.Topology.n_id) n.Topology.n_subnet)
        topo.Topology.nodes;
  }

let route t ~src_edge ~dst_edge =
  match t.columns.(dst_edge) with
  | Some c -> walk c ~src:src_edge ~dst:dst_edge
  | None -> None

let path topo ~src_edge ~dst_edge =
  walk (column (adjacency topo) ~dst:dst_edge) ~src:src_edge ~dst:dst_edge

let entry ~prefix ~len ~port ~dmac =
  Entry.make
    ~keys:[ Entry.lpm (Value.make ~width:32 prefix) len ]
    ~action:"set_nexthop"
    ~args:[ Value.of_int ~width:9 port; Value.make ~width:48 dmac ]
    ()

let entries_for t id =
  List.concat_map
    (fun (e : Topology.node) ->
      if e.Topology.n_id = id then
        (* terminate the subnet: one /32 per attached host *)
        Array.to_list t.topo.Topology.hosts
        |> List.filter_map (fun (h : Topology.host) ->
               if h.Topology.h_node <> id then None
               else
                 Some
                   ( "ipv4_lpm",
                     entry ~prefix:h.Topology.h_ip ~len:32 ~port:h.Topology.h_port
                       ~dmac:h.Topology.h_mac ))
      else
        match (e.Topology.n_subnet, t.columns.(e.Topology.n_id)) with
        | Some (prefix, len), Some c when c.peer.(id) >= 0 ->
            [
              ( "ipv4_lpm",
                entry ~prefix ~len ~port:c.port.(id) ~dmac:(Topology.node_mac c.peer.(id)) );
            ]
        | _ -> [] (* unreachable edge: no route, the LPM default drops *))
    (Topology.edges t.topo)

let tier = function
  | Topology.Edge | Topology.Leaf -> 0
  | Topology.Aggregation -> 1
  | Topology.Core | Topology.Spine -> 2
