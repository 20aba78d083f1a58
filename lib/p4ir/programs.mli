(** Library of example data-plane programs.

    Each bundle pairs an IR program with a workable set of control-plane
    entries, so tests, examples and experiments can deploy a program in one
    call. All programs typecheck ({!Typecheck.check}); the test suite
    enforces this. *)

type bundle = {
  program : Ast.program;
  entries : (string * Entry.t) list;  (** (table, entry) install list *)
  description : string;
}

(* Shared header declarations (field layout matches the [packet] library). *)
val eth_h : Ast.header_decl

val basic_router : bundle
(** IPv4 LPM router; rejects non-IPv4 at the parser, verifies the IPv4
    checksum, drops TTL=0, decrements TTL on forward. *)

val router_split : bundle
(** Same forwarding function as {!basic_router}, specified with two tables
    (LPM -> next-hop id, next-hop id -> port/MAC). The "alternative
    specification" for the comparison use-case. *)

val buggy_router : bundle
(** {!basic_router} with a seeded functional bug: TTL is not decremented.
    Used by the functional-testing use-case. *)

val parser_guard : bundle
(** The Section-4 case-study program: the parser rejects unknown
    EtherTypes and non-version-4 IPv4; a default route forwards everything
    else to the next hop. Under the SDNet [reject] quirk, packets that
    should die in the parser are forwarded — the paper's headline bug. *)

val l2_switch : bundle
(** MAC learning switch skeleton: source-MAC hit check + destination-MAC
    exact forwarding, unknown destinations dropped and counted. *)

val acl_firewall : bundle
(** Eth/IPv4/TCP|UDP parser, ternary ACL (src, dst, proto, l4 dst port)
    then LPM forwarding. *)

val mpls_tunnel : bundle
(** MPLS label edge/transit: push on IPv4 ingress, swap mid-path, pop at
    egress. Exercises setValid/setInvalid and deparser ordering. *)

val vlan_router : bundle
(** 802.1Q-aware router: VLAN-tagged IPv4 routed per (vid, dst). *)

val ipv6_router : bundle
(** IPv6 LPM router. 128-bit addresses live in 64-bit hi/lo field pairs
    (the IR's width limit); prefixes up to /64 match on the high half. *)

val calc : bundle
(** In-network compute example: a custom header with opcode/operands is
    evaluated in the pipeline and reflected to the sender — the
    "in-network computing" workload class that motivates the paper. *)

val reflector : bundle
(** Minimal program: accept everything, send back out the ingress port. *)

val rate_limiter : bundle
(** Stateful per-port packet budget held in a register array: each port may
    send [limit] packets (from the [port_policy] table); the rest drop.
    Exercises RegRead/RegWrite with persistent device state. *)

val kv_cache : bundle
(** NetCache-style in-network key-value cache: a custom GET/PUT header
    served from register arrays, replies reflected to the requester — the
    in-network-computing workload class that motivates the paper. *)

val all : bundle list
(** Every bundle above, in a stable order. *)

val find : string -> bundle option
(** Look up by program name. *)
