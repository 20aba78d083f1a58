(** Symbolic execution of an IR program under the language-spec semantics.

    Explores every control path of parse -> ingress -> egress against the
    installed control-plane entries, building a path condition over the
    unknown packet's fields. This is what "software formal verification"
    means in the paper's Figure 2: reasoning about the {e specification} of
    the program — deliberately blind to anything a compiler or the hardware
    does to it.

    Model notes (documented simplifications, all spec-faithful for the
    program library): packets are assumed long enough for every extract
    (no PacketTooShort paths); the architecture's IPv4 checksum
    verification is modelled as a free boolean choice, and witness packets
    are rendered with a correct checksum when the path assumes it. *)

type ending = Rejected of int | Dropped of string | Forwarded

type path = {
  p_conds : Sym.t list;  (** path condition, a conjunction *)
  p_ending : ending;
  p_ingress_port : Sym.var;
  p_extracts : (string * (string * Sym.var) list) list;
      (** extraction order: header -> (field, its variable) *)
  p_fields : (string * string * Sym.t) list;
      (** final symbolic values of all valid headers' fields *)
  p_egress : Sym.t;  (** final egress_spec *)
  p_tables : (string * string) list;  (** (table, action) applied, in order *)
  p_checksum_assumed_ok : bool;
  p_invalid_reads : (string * string) list;
      (** fields read while their header was invalid (such reads yield
          zero — usually a program bug) *)
}

type run = {
  paths : path list;
  obligations : (Sym.t list * Sym.t * string) list;
      (** assert obligations: (path condition, asserted condition, message) *)
  truncated : bool;  (** true if [max_paths] stopped exploration early *)
}

val explore : ?max_paths:int -> P4ir.Ast.program -> P4ir.Runtime.t -> run
(** [max_paths] defaults to 4096. *)

val witness_bits : path -> Solver.model -> Bitutil.Bitstring.t
(** Render a concrete packet that drives execution down [path] under
    [model]: extracted headers in order with model values (checksum
    repaired when the path assumes it verifies), followed by a small
    padding payload. *)
