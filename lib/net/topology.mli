(** Typed network topologies: a graph of programmable devices joined by
    virtual links, with end hosts hanging off the edge layer.

    The topology is pure data — {!Fabric} instantiates it with one
    {!Target.Device} per node. Links are undirected and point-to-point:
    each occupies exactly one port on each endpoint, carries a
    propagation delay (added to a packet's wire timestamp when it is
    handed to the peer's ingress) and a nominal bandwidth. Hosts attach
    to a dedicated port of an edge/leaf switch and are where the fleet
    deploys its generator/checker pairs.

    Addressing follows the classic fat-tree convention: every edge
    switch owns an IPv4 /24 ([10.pod.switch.0/24] in a fat-tree,
    [10.leaf.0.0/24] in a leaf-spine) and its hosts live inside it.
    {!Route} turns the graph + subnets into per-device LPM entries.

    Topologies round-trip through JSON ({!to_json} / {!of_json}, HeTu's
    [topology.json] shape adapted to this repo's schema), so externally
    generated fabrics can be validated with the same machinery as the
    built-in generators. *)

type role = Edge | Aggregation | Core | Leaf | Spine

type node = {
  n_id : int;  (** dense, [0 .. nodes-1] *)
  n_name : string;
  n_role : role;
  n_ports : int;
  n_subnet : (int64 * int) option;
      (** (prefix, length): the IPv4 range this edge switch terminates *)
}

type link = {
  l_a : int;
  l_a_port : int;
  l_b : int;
  l_b_port : int;
  l_delay_ns : float;  (** propagation delay, each direction *)
  l_gbps : float;  (** nominal link bandwidth (informational) *)
}

type host = {
  h_id : int;  (** dense, [0 .. hosts-1] *)
  h_name : string;
  h_node : int;  (** the edge switch this host hangs off *)
  h_port : int;  (** ... and the switch port it occupies *)
  h_ip : int64;
  h_mac : int64;
  h_delay_ns : float;  (** host-link propagation delay *)
}

type t = {
  t_name : string;
  nodes : node array;
  links : link array;
  hosts : host array;
}

val fat_tree : int -> t
(** [fat_tree k] (k even, >= 2): the canonical k-ary fat-tree — [k] pods
    of [k/2] edge + [k/2] aggregation switches, [(k/2)^2] core switches,
    [k/2] hosts per edge switch; every switch has exactly [k] ports.
    [fat_tree 4] is 20 switches and [k^3/4 = 16] hosts. Link delay 500 ns
    (≈ 100 m of fibre), host links 100 ns.
    @raise Invalid_argument for odd or non-positive [k]. *)

val leaf_spine :
  ?link_delay_ns:float ->
  ?hosts_per_leaf:int ->
  spines:int ->
  leaves:int ->
  unit ->
  t
(** A two-tier Clos: every leaf uplinks to every spine; [hosts_per_leaf]
    (default 2) hosts per leaf. Leaf [l] owns subnet [10.l.0.0/24].
    Spine links default to 500 ns; host links take 100 ns. *)

val single : hosts:int -> unit -> t
(** One edge switch with [hosts] directly attached hosts — the smallest
    fabric (used by unit tests and the B16 microbench, where the fabric
    overhead around exactly one device forward is what's measured). *)

val validate : t -> (unit, string) result
(** Structural invariants: dense ids, ports in range, every (node, port)
    endpoint used by at most one link or host, link endpoints distinct,
    host IPs inside their edge switch's subnet. The generators always
    produce valid topologies; JSON input goes through this before a
    fabric is built. *)

val node_named : t -> string -> node option

val node_mac : int -> int64
(** The deterministic MAC a switch answers to (next-hop rewrite target). *)

val edges : t -> node list
(** Nodes that terminate a subnet (role Edge or Leaf), ascending id. *)

val max_ports : t -> int
(** The widest node — what the per-device {!Target.Config} must carry. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** [of_json] validates with {!validate} before returning. *)

val to_file : t -> string -> unit
val of_file : string -> (t, string) result

val summary : t -> string
(** One line: name, node/link/host counts. *)
