(** Execution of the parser state machine over raw packet bits.

    Used by the interpreter with {!spec_hooks} (reject means drop, as the
    P4-16 specification requires); the compiled device's staged engine
    ({!Compilecore}) takes the same hooks, derived from the SDNet quirk
    model — in particular
    [on_reject = `Continue], reproducing the real SDNet bug the paper
    discovered: packets that reach [reject] proceed through the pipeline
    instead of being dropped. *)

type hooks = {
  on_reject : [ `Drop | `Continue ];
  verify_checksum : bool;
      (** gate for the architecture-level IPv4 checksum verification
          requested by [p_verify_ipv4_checksum] *)
  max_steps : int;  (** parser state-visit budget (loop protection) *)
}

val spec_hooks : hooks

val lenient_hooks : hooks
(** NetDebug's own parsing — the generator's render, the checker's
    re-parse of emissions, observation in tests and use cases: it never
    drops and never verifies a checksum. *)

type outcome = {
  accepted : bool;  (** false means the packet is dropped at the parser *)
  error : int;  (** a {!Stdmeta} error code; [error_none] when clean *)
  states_visited : string list;  (** in visit order, for tracing *)
}

val run : ?hooks:hooks -> Exec.ctx -> Bitutil.Bitstring.t -> outcome
(** Parse the bits into the context's environment: extracted headers become
    valid with their field values set, [Parser_error] and [Packet_length]
    standard metadata are set, and the unconsumed remainder becomes the
    payload. *)
