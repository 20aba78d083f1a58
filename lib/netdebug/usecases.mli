(** The seven validation use-cases of Section 3, implemented on top of the
    harness. Each returns structured data; the bench harness renders the
    paper's tables/figures from it.

    Every single-packet check — functional validation, the per-path
    check and comparison — fires one in-device shot: the packet's
    checker rules armed in-process, the generator's raw render injected
    ({!Generator.send_raw}), the verdict read straight back, and one
    device quiesce per batch. The management protocol serves the
    use-cases that drive streams or read device state (performance,
    status). *)

module Functional : sig
  (** Functional testing: drive directed + fuzz vectors through the device
      and compare every observable against the expected behaviour — the
      reference interpreter run on the oracle program (by default the
      deployed program itself, so any mismatch indicts the toolchain or
      hardware; pass the intended program as [oracle] to hunt for bugs in
      the P4 source instead). *)

  type mismatch = {
    mm_index : int;
    mm_packet : Bitutil.Bitstring.t;
    mm_expected : string;
    mm_got : string;
  }

  type report = { fr_tested : int; fr_mismatches : mismatch list }

  val run :
    ?oracle:P4ir.Programs.bundle ->
    ?vectors:Bitutil.Bitstring.t list ->
    ?fuzz:int ->
    ?fuzz_seed:int ->
    ?stateful:bool ->
    ?jobs:int ->
    Harness.t ->
    report
  (** [vectors] defaults to symbolic-execution path witnesses of the
      oracle; [fuzz] random packets are appended (default 32), generated
      from [fuzz_seed] (default {!Vectors.fuzz}'s seed, 77).
      [stateful] (default false) resets the device's registers and threads
      one register store through the oracle so programs with persistent
      state (rate limiters, caches) can be validated packet-by-packet.
      [jobs] (default 1) shards the vectors across that many worker
      domains, each driving its own {!Harness.replicate} replica of the
      deployment; per-worker telemetry is folded back into [h]'s device
      registry on join. Without [stateful] every vector is independent —
      device registers are reset before each one — so the report is the
      same for every [jobs]. When [stateful] is set, [jobs] is ignored
      (packet history is inherently sequential). *)

  val passed : report -> bool
  (** True iff no vector mismatched. *)

  val pp : Format.formatter -> report -> unit
  (** One summary line plus one line per mismatch. *)

  val oracle_runtime : P4ir.Programs.bundle -> P4ir.Runtime.t
  (** Fresh runtime with the bundle's entries installed — the spec side of
      the differential. Exposed so long-running drivers (the soak loop)
      can build one oracle and validate incrementally. *)

  val check_batch :
    ?regs:P4ir.Regstate.t ->
    ?base:int ->
    P4ir.Programs.bundle ->
    P4ir.Runtime.t ->
    Harness.t ->
    Bitutil.Bitstring.t array ->
    mismatch option array
  (** Validate [packets] in order on [h]: for each, interpret the spec
      under the oracle runtime (threading [regs] when given), arm the
      checker with the predicted observation, fire the generator's raw
      shot ({!Generator.send_raw}) and read the verdict back in-process —
      no management-protocol round trip, and one device quiesce for the
      whole batch. Device registers are not reset. Verdicts land at their
      packet index; [mm_index] is [base + index] (default [base = 0]).
      Used by {!run} and the soak loop's concurrent validation
      (DESIGN.md §15).

      Each packet's rules are armed only while that packet is judged.
      On return, normal or exceptional, the checker holds the rule set
      it held at the call (re-armed through {!Checker.configure}, so
      with fresh tallies): emissions after the batch — the soak's
      background traffic — are judged by the caller's rules, and with
      none armed they are only counted, never re-parsed. {!run} and
      {!check_paths} keep the same contract. *)

  type divergence = {
    dv_path : int;  (** 1-based path index, in exploration order *)
    dv_descr : string;  (** the path's descriptor, from the oracle *)
    dv_expected : string;  (** what the symbolic oracle predicted *)
    dv_got : string;  (** what the device did *)
  }
  (** One path where the device disagreed with the symbolic oracle. *)

  type path_report = {
    pr_oracle : Symexec.Testgen.report;
        (** the generated vectors and coverage stats *)
    pr_checked : int;  (** vectors driven through the device *)
    pr_skipped : int;
        (** state-dependent vectors skipped (their expectations are not
            reliable oracles — see {!Symexec.Testgen.vector}) *)
    pr_divergences : divergence list;
        (** ascending path order: the head is always the {e first}
            diverging path *)
  }

  val check_paths :
    ?seed:int ->
    ?max_paths:int ->
    ?jobs:int ->
    Harness.t ->
    path_report
  (** Per-path symexec-vs-device divergence check: generate one covering
      vector per satisfiable path of the deployed program
      ({!Symexec.Testgen.generate}, pinned to the generator port), drive
      each through the deployment, and compare the device's observation
      against the path's {e symbolic} expectation. Unlike {!run}, the
      reference interpreter is never consulted, and every divergence
      names the control-flow path that exposed it. [jobs] parallelizes
      both vector generation and the device sweep (replicated harnesses,
      as in {!run}); the report is identical for every [jobs] value. *)

  val paths_agree : path_report -> bool
  (** True iff no checked path diverged. *)

  val first_divergence : path_report -> divergence option
  (** The lowest-numbered diverging path, if any. *)

  val pp_paths : Format.formatter -> path_report -> unit
  (** Coverage summary plus one block per divergence. *)
end

module Performance : sig
  (** Performance testing: offered-load sweep through the internal
      generator, measuring throughput, packet rate and latency at the
      check point. *)

  type point = {
    pt_offered_gbps : float;
    pt_achieved_gbps : float;
    pt_achieved_mpps : float;
    pt_lat_p50_ns : float;
    pt_lat_p99_ns : float;
    pt_sent : int;
    pt_received : int;
  }

  val sweep :
    ?loads:float list ->
    ?packets_per_point:int ->
    Harness.t ->
    probe:Bitutil.Bitstring.t ->
    point list
  (** [loads] are fractions of the device line rate
      (default 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25). *)
end

module Compiler_check : sig
  (** Compiler check: a battery of seeded toolchain quirks; each is
      detected iff functional testing of a quirk-sensitive program reports
      mismatches against its own specification. *)

  type detection = {
    dq_quirk : Sdnet.Quirks.quirk option;  (** [None] is the faithful control *)
    dq_program : string;
    dq_detected : bool;
    dq_evidence : string;
  }

  val sensitive_program : Sdnet.Quirks.quirk -> P4ir.Programs.bundle
  (** The probe program whose behaviour the quirk perturbs. *)

  val battery : unit -> detection list
  (** Run the faithful control plus one detection per shipped quirk. *)
end

module Architecture_check : sig
  (** Architecture check: probe the target's undocumented limits from the
      outside by compiling synthesized programs of growing size. *)

  type probe_result = {
    ar_limit : string;
    ar_discovered : int;
    ar_documented : int;
  }

  val probe : unit -> probe_result list
  (** Binary-search each limit by compiling synthesized programs against
      {!Target.Config.netfpga_sume}. *)
end

module Resources : sig
  (** Resources quantification: per-program hardware consumption. *)

  type row = {
    rr_program : string;
    rr_stages : int;
    rr_latency_cycles : int;
    rr_luts : int;
    rr_ffs : int;
    rr_brams : int;
    rr_tcam_bits : int;
    rr_max_util_pct : float;
  }

  val inventory : unit -> row list
  (** One row per program of the library, compiled for
      {!Target.Config.netfpga_sume} — no deployment involved. *)
end

module Status : sig
  (** Status monitoring: periodic internal snapshots while live traffic
      flows. *)

  val monitor :
    ?period_packets:int ->
    ?samples:int ->
    ?load:float ->
    Harness.t ->
    background:Bitutil.Bitstring.t ->
    Wire.status_summary list
  (** [load] paces the live traffic as a fraction of line rate
      (default 0.5). *)
end

module Comparison : sig
  (** Comparison: run the same probes through two deployments (e.g. two
      alternative specifications of one program) and diff every emitted
      packet. *)

  type divergence = {
    dv_index : int;
    dv_probe : Bitutil.Bitstring.t;
    dv_a : string;
    dv_b : string;
  }

  type report = { cr_compared : int; cr_divergences : divergence list }

  val run :
    ?quirks_a:Sdnet.Quirks.t ->
    ?quirks_b:Sdnet.Quirks.t ->
    ?probes:Bitutil.Bitstring.t list ->
    P4ir.Programs.bundle ->
    P4ir.Programs.bundle ->
    report
  (** Deploy both bundles (under [quirks_a] / [quirks_b], both defaulting
      to the shipped toolchain) and diff every emission byte-for-byte.
      [probes] defaults to path witnesses of the first bundle plus fuzz. *)

  val equivalent : report -> bool
  (** True iff no probe diverged. *)
end
