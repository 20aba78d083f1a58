(** Deterministic coverage-guided differential fuzzing campaigns.

    A campaign seeds a corpus with well-formed traffic, then repeatedly
    picks an input (energy-weighted), mutates it with the
    header-structure-aware mutators and pushes the child through the
    differential {!Oracle}. Children that light up a new coverage edge
    join the corpus and reward their parent; divergences are deduplicated
    by fingerprint, minimized and attributed to toolchain quirks by
    knock-out. Everything is reproducible from the integer seed.

    Campaigns always execute as a fixed number of logical sub-campaigns
    (8 shards) over a round-robin interleaving of the budget, with their
    own PRNG streams (split off the seed in shard order) and their own
    deployed oracle each. Every shard window runs inside one oracle
    batch window ({!Oracle.with_batch}), so the hot loop's executions —
    one in-device generator shot each — share one device quiesce per
    window.

    Two scheduling engines share that hot loop (DESIGN.md §15):

    - {b deterministic} (the library default): shards exchange fresh
      coverage labels, corpus entries and divergence sightings only at
      synchronization barriers, integrated in ascending shard order.
      [jobs] chooses nothing but how many domains run the shards: the
      report is a pure function of (program, quirks, seed, budget) and
      renders byte-identically for every [jobs] value.
    - {b async} ([~deterministic:false], the [netdebug fuzz] CLI
      default): workers own their shards statically and never wait for
      each other; discoveries integrate through lock-free epoch merges
      ({!Par.Epoch}) at window granularity. Wall-clock scales with
      [jobs] (no barrier, no idle domains), while the report becomes
      schedule-dependent in its incidental detail (corpus size, found-at
      indices) — the {e verdict set} (minimized divergence fingerprints)
      is preserved exactly and coverage saturates to the same core edge
      set (its stochastic tail of rare mutation-dependent labels can
      move by a couple of edges, as it does between seeds), which the
      test suite checks cross-mode. On a pure seed-corpus replay (no
      mutation) both engines render byte-identically. *)

type divergence = {
  dv_fingerprint : string;
  dv_kind : string;  (** "verdict", "port" or "payload" *)
  dv_spec : string;
  dv_dev : string;
  dv_input : Bitutil.Bitstring.t;  (** first input that exposed it *)
  dv_repro : Bitutil.Bitstring.t;  (** minimized reproducer *)
  dv_found_at : int;  (** 1-based campaign execution index *)
  dv_quirks : Sdnet.Quirks.quirk list;  (** culpable quirks (knock-out) *)
}

type report = {
  rp_program : string;
  rp_mode : string;  (** "guided" or "blind" *)
  rp_quirks : Sdnet.Quirks.t;
  rp_seed : int;
  rp_budget : int;
  rp_executions : int;  (** campaign-loop executions (== budget) *)
  rp_total_executions : int;  (** including minimization replays *)
  rp_edges : int;  (** distinct coverage-map edges covered *)
  rp_corpus : int;
  rp_divergences : divergence list;  (** in discovery order *)
  rp_jobs : int;  (** worker domains that ran the campaign *)
  rp_deterministic : bool;  (** barrier engine ([true]) or async engine *)
  rp_wall_s : float;  (** host wall-clock of the whole campaign *)
}
(** [rp_jobs], [rp_deterministic] and [rp_wall_s] are machine- and
    schedule-dependent and deliberately excluded from {!render}; see
    {!render_throughput}. *)

val run :
  ?quirks:Sdnet.Quirks.t ->
  ?seed_corpus:Bitutil.Bitstring.t list ->
  ?jobs:int ->
  ?deterministic:bool ->
  budget:int ->
  seed:int ->
  P4ir.Programs.bundle ->
  report
(** Coverage-guided campaign of exactly [budget] oracle executions (plus
    minimization replays, reported separately). [quirks] defaults to the
    shipped toolchain ({!Sdnet.Quirks.default}). [seed_corpus] replaces
    the three built-in well-formed templates as the initial corpus of
    every shard (duplicates dropped, first occurrence wins) — pass
    {!Symexec.Testgen.packets} to start the campaign coverage-complete
    instead of making it rediscover the program's paths by random
    mutation. [jobs] (default 1) is the number of worker domains
    executing the campaign's shards. [deterministic] (default [true])
    selects the barrier engine, whose report is a pure function of
    (seed_corpus, seed, budget) — bit-identical at any [jobs]; pass
    [false] for the barrier-free async engine, which trades that
    byte-identity for wall-clock scaling while preserving the verdict
    set.
    @raise Invalid_argument when [budget < 1] or [seed_corpus] is
    empty. *)

val run_blind :
  ?quirks:Sdnet.Quirks.t ->
  ?jobs:int ->
  budget:int ->
  seed:int ->
  P4ir.Programs.bundle ->
  report
(** Control arm: the same oracle and coverage accounting driven by the
    feedback-free {!Netdebug.Vectors.fuzz} traffic — the baseline the
    guided campaign's edge count is compared against. [jobs] as in
    {!run}. *)

val render : report -> string
(** Deterministic text report (golden-tested; no wall-clock or
    machine-dependent content). *)

val render_throughput : report -> string
(** One wall-clock perf line — ["throughput: <execs> execs in <s> s =
    <execs/s> execs/s (jobs <n>, <engine>)"] — kept out of {!render} so
    report files stay byte-comparable while CI logs still show fuzzing
    throughput. *)

val pp : Format.formatter -> report -> unit
