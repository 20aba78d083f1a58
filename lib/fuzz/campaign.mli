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

    Shards exchange fresh coverage labels, corpus entries and divergence
    sightings only at synchronization barriers, integrated in ascending
    shard order; each round hands every shard just what the previous
    barrier integrated (DESIGN.md §15). [jobs] chooses nothing but how
    many domains run the shards: the report is a pure function of
    (program, quirks, seed, budget, seed corpus) and renders
    byte-identically for every [jobs] value. *)

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
  rp_wall_s : float;  (** host wall-clock of the whole campaign *)
}
(** [rp_jobs] and [rp_wall_s] are machine-dependent and deliberately
    excluded from {!render}; see {!render_throughput}. *)

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
    executing the campaign's shards; the report is bit-identical at any
    [jobs]. [deterministic] is accepted and ignored, so callers that
    still pass it keep building; every campaign runs the one barrier
    engine.
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
    <execs/s> execs/s (jobs <n>)"] — kept out of {!render} so
    report files stay byte-comparable while CI logs still show fuzzing
    throughput. *)
