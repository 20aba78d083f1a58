(** Property checks over symbolic executions — the user-facing face of the
    formal-verification baseline (in the spirit of p4v, the paper's
    reference [3]).

    Verdicts are three-valued. For properties whose violation search is
    satisfiability-based, [Violated] means a violating model was found and
    [Holds] means every violation query the property posed was refuted.
    When nothing is violated but the bounded solver gave up on some query
    ([Solver.Unknown]), the verdict is [Unknown], never [Holds], and its
    detail says how many queries are unresolved. Properties that are
    structural over the explored paths (e.g. {!rejected_are_dropped}) are
    exact. Each [Violated] verdict carries a concrete witness packet that
    drives the program down the violating path — these witnesses are what
    NetDebug replays against hardware. *)

type verdict = Holds | Violated | Unknown

type finding = {
  f_property : string;
  f_verdict : verdict;
  f_detail : string;
  f_witness : (int * Bitutil.Bitstring.t) option;
      (** (ingress port, packet) reproducing the violation — or, for
          reachability-style properties, exercising the property *)
}

val assertions : P4ir.Ast.program -> P4ir.Runtime.t -> finding list
(** One finding per [Assert] message in the program: [Violated] when some
    obligation's negation is satisfiable, else [Unknown] when some
    obligation's search gave up, else [Holds]. *)

val rejected_are_dropped : P4ir.Ast.program -> P4ir.Runtime.t -> finding
(** The Section-4 property: every path that reaches parser [reject] ends
    dropped. Exact over the explored specification — and constitutionally
    unable to see the SDNet bug, because the hardware never enters the
    analysis. *)

val reject_reachable : P4ir.Ast.program -> P4ir.Runtime.t -> finding list
(** One finding per satisfiable reject path, each with a witness packet.
    These are ready-made negative test vectors. *)

val forward_requires_header : header:string -> P4ir.Ast.program -> P4ir.Runtime.t -> finding
(** No packet is forwarded while [header] is invalid. *)

val ttl_decremented : P4ir.Ast.program -> P4ir.Runtime.t -> finding
(** Every forwarded packet with a valid "ipv4" header leaves with
    [ttl_out = ttl_in - 1]. Catches {!P4ir.Programs.buggy_router}. *)

val egress_port_bounded :
  ports:int ->
  ?allowed:int list ->
  P4ir.Ast.program ->
  P4ir.Runtime.t ->
  finding
(** Every path that forwards to a {e constant} port stays below [ports]
    (or in [allowed], e.g. a CPU punt port). Paths with symbolic egress
    (reflection) are skipped. *)

val no_invalid_header_reads : P4ir.Ast.program -> P4ir.Runtime.t -> finding
(** No reachable path reads a field of a header that was never parsed or
    was invalidated — such reads silently yield zero and almost always
    indicate a missing validity guard. [Unknown] when no such path is
    proved reachable but the search gave up on some. *)

val action_coverage : P4ir.Ast.program -> P4ir.Runtime.t -> finding list
(** Per table: which declared actions are exercised on some explored path
    (dead actions are suspicious — typically missing entries or
    unreachable control flow). *)

val run_all : P4ir.Ast.program -> P4ir.Runtime.t -> finding list
(** The standard battery: assertions, rejected-are-dropped,
    forward-requires-ipv4 (when the program has an ipv4 header),
    ttl-decremented (idem), no-invalid-header-reads, action coverage. *)

val pp_finding : Format.formatter -> finding -> unit

val verdict_to_string : verdict -> string
