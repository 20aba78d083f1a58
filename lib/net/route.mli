(** Build-time route computation: turn a {!Topology} into per-device
    control-plane state for the fleet-wide router program.

    Every device runs the same IPv4 LPM router (the paper's
    [basic_router] data plane); what differs per device is its
    [ipv4_lpm] table. For each destination edge subnet, each device
    installs one LPM entry pointing at its next hop on a shortest path
    (BFS over the switch graph); the destination edge switch itself
    installs one /32 per attached host. Next-hop selection among
    equal-cost candidates is a deterministic hash of (device, destination
    edge), so traffic spreads across the ECMP fan the way a real fabric's
    hashing would — and {!route} can reproduce the exact device sequence
    any packet will take, which is what the network-level localization
    bisects along.

    All of it is computed once per topology, into an immutable {!table}:
    one BFS per destination edge. Installing a device's entries is then a
    read of the table, and predicting a packet's path a walk of it, one
    step per hop. *)

val bundle : unit -> P4ir.Programs.bundle
(** The router program every device runs, with an empty entry list (the
    fabric installs {!entries_for} per device instead). *)

type table
(** Every device's next hop toward every destination edge switch:
    immutable, so fabric replicas on other domains share one. *)

val create : Topology.t -> table
(** One BFS per subnet-owning edge switch, each followed by the ECMP
    pick at every node that can reach it. *)

val route : table -> src_edge:int -> dst_edge:int -> int list option
(** The device id sequence a packet injected at [src_edge] traverses to
    reach [dst_edge] under {!entries_for} routing, both endpoints
    included: O(hops). [None] when no path exists, or when [dst_edge]
    owns no subnet (no device routes toward it). *)

val entries_for : table -> int -> (string * P4ir.Entry.t) list
(** The [ipv4_lpm] install list for this device, in ascending edge order:
    one subnet route per edge switch it can reach, and at its own
    edge's position (when it is an edge switch) one host /32 per
    attached host, hosts ascending. *)

val path : Topology.t -> src_edge:int -> dst_edge:int -> int list option
(** {!route} for a caller that holds only a topology: computes the one
    destination it is asked for (one BFS), then walks it. Any node may
    be the destination. *)

val tier : Topology.role -> int
(** Edge/Leaf = 0, Aggregation = 1, Core/Spine = 2 — the "how deep into
    the fabric" rank the waypoint scenario asserts over. *)
