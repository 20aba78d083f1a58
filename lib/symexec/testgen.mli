(** Symbolic test oracle: path-covering test vectors with expected
    observations (the P4Testgen direction).

    {!generate} enumerates every parser/control path of a program with
    {!Sexec.explore}, solves each path condition to a concrete covering
    packet with {!Solver.solve}, and derives the packet's expected
    data-plane observation {e from the symbolic path itself} — the
    ending (reject / drop / forward) and the final symbolic egress spec
    evaluated under the model. Nothing here runs the concrete
    interpreter, so the emitted expectations are an independent oracle
    against both {!P4ir.Interp} engines and against a deployed device.

    Vectors feed three consumers: functional sweeps
    ([Netdebug.Usecases.Functional]), the fuzz corpus as
    coverage-complete seeds ([Fuzz.Campaign ~seed_corpus]), and the
    per-path symexec-vs-device divergence check
    ([Netdebug.Usecases.Functional.check_paths]). *)

type expected =
  | Forward of int  (** forwarded out of this egress port *)
  | Drop of string
      (** dropped, with the interpreter's reason string
          (["parser:<error>"], ["ingress"] or ["egress"]) *)

type vector = {
  v_path : int;  (** 1-based index of the path, in exploration order *)
  v_descr : string;
      (** human-readable path descriptor:
          [extracts | table:action,... | ending] *)
  v_ingress_port : int;  (** port the packet must be injected on *)
  v_packet : Bitutil.Bitstring.t;  (** concrete covering packet *)
  v_expected : expected;
  v_state_dependent : bool;
      (** the expectation involves havocked register state — it is only
          guaranteed to hold for the register contents the model chose,
          so consumers should treat it as coverage, not as an oracle *)
}

and stats = {
  tg_paths : int;  (** paths enumerated *)
  tg_solved : int;  (** paths with a covering packet *)
  tg_unsat : int;  (** paths proved unreachable *)
  tg_unknown : int;  (** paths the bounded search could not decide *)
  tg_truncated : bool;  (** exploration stopped at [max_paths] *)
}

and report = { tg_program : string; tg_vectors : vector list; tg_stats : stats }

val generate :
  ?seed:int ->
  ?max_paths:int ->
  ?jobs:int ->
  ?ingress_port:int ->
  P4ir.Ast.program ->
  P4ir.Runtime.t ->
  report
(** Enumerate, solve and render one covering vector per satisfiable
    path. Path conditions are solved in parallel over [jobs] worker
    domains (default 1); results keep exploration order, so the report
    is byte-identical for every [jobs] value. [ingress_port] pins the
    ingress port of every vector by conjoining it to the path condition
    — paths unreachable from that port then report as unsat. [seed]
    seeds the per-path solver search (default [Solver.solve]'s).
    Checksum-reject paths are rendered with a deterministically
    corrupted checksum so the packet cannot accidentally verify. *)

val coverage_complete : report -> bool
(** Every enumerated path was solved and exploration was not truncated. *)

val packets : report -> Bitutil.Bitstring.t list
(** The covering packets, in path order — ready-made fuzz seeds. *)

val expected_str : expected -> string
(** [expected_str e] is ["forward to port N"] or ["drop (reason)"] — the
    same phrasing the functional use-case prints, so divergence messages
    line up across consumers. *)

val render : report -> string
(** Deterministic text report (golden-tested; no wall-clock or
    machine-dependent content). *)
