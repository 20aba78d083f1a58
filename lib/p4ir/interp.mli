(** Reference interpreter: the P4 language-specification semantics.

    This is the "software specification of the program" in the paper's
    terminology — what formal-verification tools reason about, and the
    ground truth NetDebug compares hardware behaviour against. It has no
    notion of timing, resources or compiler quirks. *)

type result = Forwarded of int * Bitutil.Bitstring.t | Dropped of string
(** [Dropped reason] where reason is "parser:<error>", "ingress" or
    "egress". *)

type observation = {
  result : result;
  parser : Parse.outcome;
  tables : (string * bool * string) list;
      (** (table, hit, action) in application order *)
  counters : (string * int) list;
      (** counter increments, by name, in first-increment order *)
  failed_asserts : string list;
}

val process :
  ?engine:Compilecore.engine ->
  ?regs:Regstate.t ->
  Ast.program -> Runtime.t -> ingress_port:int -> Bitutil.Bitstring.t -> observation
(** Run one packet through parse -> ingress -> egress -> deparse. A packet
    whose egress_spec was never assigned leaves on port 0. Pass [regs] to
    thread persistent register state across calls; the default is a fresh
    zeroed store per packet (pure single-packet specification semantics).

    [engine] selects the executor (default [`Staged]): [`Staged] runs the
    program compiled to closures, cached per domain on the (program,
    runtime) pair; [`Tree] walks the AST directly and is the reference
    the staged engine is tested against. The two are observationally
    equivalent; staged is several times faster per packet. *)

val forward :
  Ast.program -> Runtime.t -> ingress_port:int -> Bitutil.Bitstring.t ->
  (int * Bitutil.Bitstring.t) option
(** Convenience: just the forwarding decision of {!process} at its
    defaults (staged engine, fresh registers). *)
