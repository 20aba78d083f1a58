module Programs = P4ir.Programs
module Ast = P4ir.Ast
module Quirks = Sdnet.Quirks
module Vectors = Netdebug.Vectors
module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Registry = Telemetry.Registry

type divergence = {
  dv_fingerprint : string;
  dv_kind : string;
  dv_spec : string;
  dv_dev : string;
  dv_input : Bitstring.t;  (** the first input that exposed it *)
  dv_repro : Bitstring.t;  (** minimized reproducer *)
  dv_found_at : int;  (** 1-based campaign execution index of first sighting *)
  dv_quirks : Quirks.quirk list;  (** attribution by quirk knock-out *)
}

type report = {
  rp_program : string;
  rp_mode : string;  (** "guided" or "blind" *)
  rp_quirks : Quirks.t;
  rp_seed : int;
  rp_budget : int;
  rp_executions : int;  (** campaign-loop executions (== budget) *)
  rp_total_executions : int;  (** including minimization replays *)
  rp_edges : int;
  rp_corpus : int;
  rp_divergences : divergence list;  (** in discovery order *)
  (* machine-dependent facts, deliberately excluded from render: the
     report text stays a pure function of (program, quirks, seed, budget,
     seed corpus) *)
  rp_jobs : int;
  rp_wall_s : float;
}

(* Well-formed, program-agnostic starting points; everything malformed is
   the mutators' job. Deliberately NOT symbolic-execution witnesses: the
   campaign must discover interesting paths itself, not be handed them. *)
let seeds () =
  [
    Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000001L ());
    Packet.serialize (Packet.tcp_ipv4 ~dst:0xC0A80101L ());
    Packet.serialize (Packet.make [ Packet.Eth (Packet.Eth.make ()) ] ());
  ]

(* ------------------------------------------------------------------ *)
(* Sharded execution engine                                            *)
(* ------------------------------------------------------------------ *)

(* The campaign always runs as [shards] logical sub-campaigns over a
   round-robin interleaving of the execution budget; [jobs] only sets how
   many domains execute them. Because shards exchange state exclusively
   at round barriers — integrated by the coordinator in ascending shard
   order — the report depends on (seed, budget, quirks) alone, never on
   scheduling: any jobs value renders byte-identically. The constant is
   part of the output format; changing it changes reports. *)
let shards = 8

(* executions a shard runs between synchronization barriers *)
let sync_batch = 64

(* global execution index of a shard's [j]-th (1-based) local execution:
   the interleaving a round-robin scheduler would produce. Injective, and
   onto [1, budget] when the remainder goes to the lowest shard ids. *)
let gindex_of ~shard j = ((j - 1) * shards) + shard + 1

type sighting = {
  sg_gindex : int;
  sg_input : Bitstring.t;
  sg_div : Oracle.divergence;
}

type shard_state = {
  sh_id : int;
  sh_oracle : Oracle.t;
  sh_prng : Prng.t;
  sh_corpus : Corpus.t;
  sh_known : (string, unit) Hashtbl.t;  (* edge labels distributed to this shard *)
  sh_have : (string, unit) Hashtbl.t;  (* keys (hex) of entries already in sh_corpus *)
  sh_seen : (string, unit) Hashtbl.t;  (* fingerprints already sighted locally *)
  mutable sh_budget : int;  (* local executions still to run *)
  mutable sh_done : int;  (* local executions performed *)
  mutable sh_pending_seeds : Bitstring.t list;
  mutable sh_new_labels : string list;  (* published at the round barrier *)
  mutable sh_new_entries : (string * Bitstring.t) list;
      (* (key, entry) admitted this round, reverse local order *)
  mutable sh_sightings : sighting list;  (* reverse local discovery order *)
}

(* split the budget: shard i runs budget/shards executions, the first
   (budget mod shards) shards one more — the precondition of gindex_of *)
let shard_budgets budget =
  let q = budget / shards and r = budget mod shards in
  Array.init shards (fun i -> q + if i < r then 1 else 0)

let make_shard ?quirks bundle ~prng ~id ~budget ~templates =
  let oracle = Oracle.create ?quirks bundle in
  let corpus = Corpus.create () in
  Registry.gauge (Oracle.metrics oracle) ~help:"inputs in the fuzzing corpus"
    "fuzz/corpus_size" (fun () -> float_of_int (Corpus.size corpus));
  List.iter (Corpus.add corpus) templates;
  let sh_have = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace sh_have (Bitstring.to_hex s) ()) templates;
  {
    sh_id = id;
    sh_oracle = oracle;
    sh_prng = prng;
    sh_corpus = corpus;
    sh_known = Hashtbl.create 64;
    sh_have;
    sh_seen = Hashtbl.create 8;
    sh_budget = budget;
    sh_done = 0;
    sh_pending_seeds = templates;
    sh_new_labels = [];
    sh_new_entries = [];
    sh_sightings = [];
  }

let sight st input (x : Oracle.exec) =
  match x.Oracle.x_divergence with
  | Some d when not (Hashtbl.mem st.sh_seen d.Oracle.d_fingerprint) ->
      Hashtbl.replace st.sh_seen d.Oracle.d_fingerprint ();
      st.sh_sightings <-
        { sg_gindex = gindex_of ~shard:st.sh_id st.sh_done; sg_input = input; sg_div = d }
        :: st.sh_sightings
  | Some _ | None -> ()

(* round start, inside the worker: absorb what the last barrier
   integrated. [labels] and [entries] are the coordinator's read-only
   lists of what was new there; everything older reached this shard in
   an earlier round. *)
let distribute st ~labels ~entries =
  List.iter
    (fun label ->
      if not (Hashtbl.mem st.sh_known label) then begin
        Hashtbl.replace st.sh_known label ();
        ignore (Coverage.note (Oracle.coverage st.sh_oracle) label)
      end)
    labels;
  List.iter
    (fun (key, entry) ->
      if not (Hashtbl.mem st.sh_have key) then begin
        Hashtbl.replace st.sh_have key ();
        Corpus.add st.sh_corpus entry
      end)
    entries

(* one barrier-to-barrier batch of guided executions, purely local *)
let guided_round layout st =
  let n = min sync_batch st.sh_budget in
  for _ = 1 to n do
    st.sh_done <- st.sh_done + 1;
    st.sh_budget <- st.sh_budget - 1;
    let input, parent =
      match st.sh_pending_seeds with
      | s :: rest ->
          st.sh_pending_seeds <- rest;
          (s, None)
      | [] ->
          let parent = Corpus.pick st.sh_corpus st.sh_prng in
          (Mutate.mutate layout st.sh_prng (Corpus.bits parent), Some parent)
    in
    let before = Coverage.edges (Oracle.coverage st.sh_oracle) in
    let x = Oracle.execute st.sh_oracle input in
    let grew = Coverage.edges (Oracle.coverage st.sh_oracle) > before in
    (match parent with
    | Some p when grew ->
        Corpus.add st.sh_corpus input;
        Corpus.reward st.sh_corpus p;
        let key = Bitstring.to_hex input in
        if not (Hashtbl.mem st.sh_have key) then begin
          Hashtbl.replace st.sh_have key ();
          st.sh_new_entries <- (key, input) :: st.sh_new_entries
        end
    | Some _ | None -> ());
    sight st input x
  done;
  (* labels this shard covered first (locally): everything interned that
     was never distributed to it. Sorted by Coverage.labels, so the
     publication order is fixed. *)
  st.sh_new_labels <-
    List.filter
      (fun l -> not (Hashtbl.mem st.sh_known l))
      (Coverage.labels (Oracle.coverage st.sh_oracle))

(* every shard's sightings, shards in ascending order *)
let sightings states =
  List.concat_map (fun st -> List.rev st.sh_sightings) (Array.to_list states)

(* phase 2, shared by both arms: sort sightings into the global
   discovery order, keep the first per fingerprint, then minimize and
   attribute each on the oracle of the shard that found it (executions
   and coverage from shrink replays land where the sequential engine put
   them). Shard groups shrink in parallel; results reassemble by gindex. *)
let resolve_divergences pool_ layout states sightings =
  let seen = Hashtbl.create 16 in
  let ordered =
    List.filter
      (fun s ->
        let fp = s.sg_div.Oracle.d_fingerprint in
        if Hashtbl.mem seen fp then false
        else begin
          Hashtbl.add seen fp ();
          true
        end)
      (List.sort (fun a b -> compare a.sg_gindex b.sg_gindex) sightings)
  in
  let by_shard = Array.make (Array.length states) [] in
  List.iter
    (fun s ->
      let owner = (s.sg_gindex - 1) mod shards in
      by_shard.(owner) <- s :: by_shard.(owner))
    (List.rev ordered);
  let groups =
    Par.Pool.map_chunks pool_ ~chunk:1
      (fun ~worker:_ i group ->
        let st = states.(i) in
        List.map
          (fun s ->
            let fp = s.sg_div.Oracle.d_fingerprint in
            let repro = Minimize.minimize st.sh_oracle layout ~fingerprint:fp s.sg_input in
            let quirks = Oracle.attribute st.sh_oracle repro in
            (s, repro, quirks))
          group)
      by_shard
  in
  let resolved = List.concat (Array.to_list groups) in
  List.map
    (fun s ->
      let _, repro, quirks =
        List.find (fun (s', _, _) -> s' == s) resolved
      in
      {
        dv_fingerprint = s.sg_div.Oracle.d_fingerprint;
        dv_kind = Oracle.kind_name s.sg_div.Oracle.d_kind;
        dv_spec = s.sg_div.Oracle.d_spec;
        dv_dev = s.sg_div.Oracle.d_dev;
        dv_input = s.sg_input;
        dv_repro = repro;
        dv_found_at = s.sg_gindex;
        dv_quirks = quirks;
      })
    ordered

(* campaign totals after phase 2: executions sum across shard oracles;
   edges are the union of per-shard coverage (shrink replays included,
   exactly like the sequential accounting that counted edges last) *)
let finish ~mode ~seed ~budget ~jobs ~wall states divergences corpus_size =
  let some = states.(0) in
  let union = Hashtbl.create 128 in
  Array.iter
    (fun st ->
      List.iter
        (fun l -> Hashtbl.replace union l ())
        (Coverage.labels (Oracle.coverage st.sh_oracle)))
    states;
  {
    rp_program = (Oracle.bundle some.sh_oracle).Programs.program.Ast.p_name;
    rp_mode = mode;
    rp_quirks = Oracle.quirks some.sh_oracle;
    rp_seed = seed;
    rp_budget = budget;
    rp_executions = Array.fold_left (fun n st -> n + st.sh_done) 0 states;
    rp_total_executions =
      Array.fold_left (fun n st -> n + Oracle.executions st.sh_oracle) 0 states;
    rp_edges = Hashtbl.length union;
    rp_corpus = corpus_size;
    rp_divergences = divergences;
    rp_jobs = jobs;
    rp_wall_s = wall;
  }

(* Shard states for every shard with a non-zero budget slice. PRNG
   streams are split off the root in ascending shard order — explicit
   loops, not Array.init, whose evaluation order is unspecified — and
   zero-budget shards still consume their split so the streams never
   depend on the budget. Their oracles (a full deployment each) are only
   created for shards that will run. *)
let make_states ?quirks bundle ~seed ~budget ~templates =
  let root = Prng.create seed in
  let streams = Array.make shards root in
  for id = 0 to shards - 1 do
    streams.(id) <- Prng.split root
  done;
  let budgets = shard_budgets budget in
  let states = ref [] in
  for id = shards - 1 downto 0 do
    if budgets.(id) > 0 then
      states :=
        make_shard ?quirks bundle ~prng:streams.(id) ~id ~budget:budgets.(id) ~templates
        :: !states
  done;
  Array.of_list !states

(* Barrier rounds, integrated by the coordinator in ascending shard
   order, so the report is a pure function of (program, quirks, seed,
   budget, seed corpus) at any jobs value. Each shard's round runs inside
   one oracle batch window — the hot loop never pays the per-execution
   management-protocol round trips. A round hands the shards only what
   the previous barrier integrated: every older label and entry already
   sits in each shard's [sh_known]/[sh_have], so the filters would drop
   it anyway. [pool] holds the keys of the global corpus (initially the
   templates, which every shard already holds); its size is the
   campaign's corpus. *)
let run_rounds pool_ layout active ~pool =
  let label_keys = Hashtbl.create 128 in
  let labels = ref [] and entries = ref [] in
  while Array.exists (fun st -> st.sh_budget > 0) active do
    let fresh_labels = !labels and fresh_entries = !entries in
    ignore
      (Par.Pool.map_chunks pool_ ~chunk:1
         (fun ~worker:_ _ st ->
           distribute st ~labels:fresh_labels ~entries:fresh_entries;
           if st.sh_budget > 0 then
             Oracle.with_batch st.sh_oracle (fun () -> guided_round layout st))
         active);
    (* barrier: integrate publications in ascending shard order *)
    labels := [];
    entries := [];
    Array.iter
      (fun st ->
        List.iter
          (fun l ->
            if not (Hashtbl.mem label_keys l) then begin
              Hashtbl.replace label_keys l ();
              labels := l :: !labels
            end)
          st.sh_new_labels;
        List.iter
          (fun ((key, _) as entry) ->
            if not (Hashtbl.mem pool key) then begin
              Hashtbl.replace pool key ();
              entries := entry :: !entries
            end)
          (List.rev st.sh_new_entries);
        st.sh_new_labels <- [];
        st.sh_new_entries <- [])
      active;
    labels := List.rev !labels;
    entries := List.rev !entries
  done;
  Hashtbl.length pool

(* [deterministic] is accepted and ignored (see campaign.mli) *)
let run ?quirks ?seed_corpus ?(jobs = 1) ?deterministic:_ ~budget ~seed bundle =
  if budget < 1 then invalid_arg "Fuzz.Campaign.run: budget must be positive";
  let layout = Mutate.layout_of bundle in
  (* [seed_corpus] swaps the generic templates for caller-supplied seeds
     — typically symbolic-execution witnesses (Symexec.Testgen), which
     start the campaign at full path coverage instead of making it
     rediscover the paths by random mutation *)
  let templates = match seed_corpus with Some c -> c | None -> seeds () in
  if templates = [] then invalid_arg "Fuzz.Campaign.run: seed corpus must be non-empty";
  (* first occurrence wins: the pool and the per-shard corpora assume
     distinct entries *)
  let pool = Hashtbl.create 64 in
  let templates =
    List.filter
      (fun t ->
        let k = Bitstring.to_hex t in
        if Hashtbl.mem pool k then false
        else begin
          Hashtbl.replace pool k ();
          true
        end)
      templates
  in
  let t0 = Unix.gettimeofday () in
  let active = make_states ?quirks bundle ~seed ~budget ~templates in
  Par.Pool.with_pool ~jobs (fun pool_ ->
      let corpus_size = run_rounds pool_ layout active ~pool in
      let divergences = resolve_divergences pool_ layout active (sightings active) in
      finish ~mode:"guided" ~seed ~budget ~jobs
        ~wall:(Unix.gettimeofday () -. t0)
        active divergences corpus_size)

(* The blind baseline: the same oracle, coverage accounting and
   post-processing, driven by Vectors.fuzz's feedback-free traffic — the
   control arm for the guided-vs-blind coverage comparison. Executions
   are state-independent, so the round-robin shard split needs no rounds
   or barriers at all, and any jobs value reproduces the sequential
   report byte for byte. *)
let run_blind ?quirks ?(jobs = 1) ~budget ~seed bundle =
  if budget < 1 then invalid_arg "Fuzz.Campaign.run_blind: budget must be positive";
  let layout = Mutate.layout_of bundle in
  let t0 = Unix.gettimeofday () in
  let active = make_states ?quirks bundle ~seed ~budget ~templates:[] in
  let inputs = Array.of_list (Vectors.fuzz ~seed ~count:budget ()) in
  Par.Pool.with_pool ~jobs (fun pool_ ->
      ignore
        (Par.Pool.map_chunks pool_ ~chunk:1
           (fun ~worker:_ _ st ->
             (* this shard's slice: inputs at positions = sh_id mod shards,
                driven through one batch window per shard *)
             Oracle.with_batch st.sh_oracle @@ fun () ->
             let j = ref 0 in
             Array.iteri
               (fun k input ->
                 if k mod shards = st.sh_id && !j < st.sh_budget then begin
                   incr j;
                   st.sh_done <- st.sh_done + 1;
                   sight st input (Oracle.execute st.sh_oracle input)
                 end)
               inputs)
           active);
      let divergences = resolve_divergences pool_ layout active (sightings active) in
      finish ~mode:"blind" ~seed ~budget ~jobs
        ~wall:(Unix.gettimeofday () -. t0)
        active divergences 0)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* Deterministic text: equal campaigns render byte-identically (golden
   tested), so no wall-clock, no machine-dependent data. *)
let render r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "fuzz campaign: %s\n" r.rp_program;
  pf "  mode %s, quirks [%s], seed %d, budget %d\n" r.rp_mode
    (String.concat ", " (List.map Quirks.name r.rp_quirks))
    r.rp_seed r.rp_budget;
  pf "  executions %d (%d with shrinking), coverage %d edges, corpus %d\n"
    r.rp_executions r.rp_total_executions r.rp_edges r.rp_corpus;
  pf "  divergences: %d\n" (List.length r.rp_divergences);
  List.iteri
    (fun i d ->
      pf "  [%d] %s divergence at execution %d\n" (i + 1) d.dv_kind d.dv_found_at;
      pf "      spec %s\n" d.dv_spec;
      pf "      dev  %s\n" d.dv_dev;
      pf "      quirks: %s\n"
        (match d.dv_quirks with
        | [] -> "(unattributed)"
        | qs -> String.concat ", " (List.map Quirks.name qs));
      pf "      repro %d bytes: %s\n"
        (Bitstring.byte_length d.dv_repro)
        (Bitstring.to_hex d.dv_repro))
    r.rp_divergences;
  Buffer.contents b

(* Wall-clock throughput, deliberately NOT part of {!render}: the report
   text stays golden-comparable while perf is still visible in CI logs. *)
let render_throughput r =
  let execs_s =
    if r.rp_wall_s > 0. then float_of_int r.rp_total_executions /. r.rp_wall_s else 0.
  in
  Printf.sprintf "throughput: %d execs in %.3f s = %.0f execs/s (jobs %d)"
    r.rp_total_executions r.rp_wall_s execs_s r.rp_jobs
