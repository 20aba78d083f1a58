(* Workload [fuzz]: the CLI's default campaign — guided, async engine,
   one job — on basic_router under the shipped quirks. Unit: one
   campaign execution ([rp_executions]). *)

open Probe
module Campaign = Fuzz.Campaign
module Oracle = Fuzz.Oracle
module Corpus = Fuzz.Corpus
module Coverage = Fuzz.Coverage
module Mutate = Fuzz.Mutate
module Epoch = Par.Epoch
module Device = Target.Device
module Harness = Netdebug.Harness
module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng

let bundle = P4ir.Programs.basic_router

(* executions per campaign; every seed finds all six divergences within
   a few hundred *)
let budget = 50_000

(* The seed commit's minimized-divergence set: the shipped reject bug
   forwards what the parser must drop, on each of the three routes. *)
let expected_fingerprints =
  List.concat_map
    (fun err ->
      List.map
        (fun port -> Printf.sprintf "verdict|spec=drop:parser:%s|dev=forward:port=%d" err port)
        [ 1; 2; 3 ])
    [ "ChecksumError"; "Reject" ]
  |> List.sort compare

let campaign ~budget ~seed = Campaign.run ~jobs:1 ~deterministic:false ~budget ~seed bundle

let fingerprints divs = List.sort compare (List.map fst divs)

(* every divergence is the expected one and blamed on the reject quirk *)
let divergences_ok divs =
  fingerprints divs = expected_fingerprints
  && List.for_all (fun (_, qs) -> qs = [ "reject-unimplemented" ]) divs

let report_divergences (r : Campaign.report) =
  List.map
    (fun d ->
      (d.Campaign.dv_fingerprint, List.map Sdnet.Quirks.name d.Campaign.dv_quirks))
    r.Campaign.rp_divergences

let run ~seed ~seconds =
  (* the campaign deploys its oracles inside Campaign.run, so set-up is
     a campaign of one execution per shard: every oracle, no search *)
  repeat ~seconds ~min_reps:5
    ~setup:(fun k -> ignore (campaign ~budget:8 ~seed:((seed * 1000) + k)))
    ~units:(fun k () ->
      let r = campaign ~budget ~seed:((seed * 1000) + k) in
      let n = r.Campaign.rp_executions in
      (n, if divergences_ok (report_divergences r) then 0 else n))

(* ------------------------------------------------------------------ *)
(* Traced replica                                                      *)
(* ------------------------------------------------------------------ *)

(* The campaign's shard structure, seeding and async schedule at one
   job, rebuilt from the library's public calls so each call can be
   timed. Its scheduling glue stays inside Campaign.run and shows up in
   the residual. *)
let shards = 8
let sync_batch = 64

(* Campaign.run's built-in templates *)
let templates () =
  [
    Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000001L ());
    Packet.serialize (Packet.tcp_ipv4 ~dst:0xC0A80101L ());
    Packet.serialize (Packet.make [ Packet.Eth (Packet.Eth.make ()) ] ());
  ]

type shard = {
  id : int;
  oracle : Oracle.t;
  prng : Prng.t;
  corpus : Corpus.t;
  known : (string, unit) Hashtbl.t;
  have : (string, unit) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
  mutable left : int;
  mutable ran : int;
  mutable pending : Bitstring.t list;
  mutable new_labels : string list;
  mutable new_entries : Bitstring.t list;
}

type layers = {
  create : layer;
  mutate : layer;
  exec : layer;
  minimize : layer;
  attribute : layer;
}

let make_shards ly ~seed ~budget =
  let root = Prng.create seed in
  let streams = Array.make shards root in
  for i = 0 to shards - 1 do
    streams.(i) <- Prng.split root
  done;
  let q = budget / shards and r = budget mod shards in
  let tpl = templates () in
  let out = ref [] in
  for i = shards - 1 downto 0 do
    let left = q + if i < r then 1 else 0 in
    if left > 0 then begin
      let oracle = time ly.create (fun () -> Oracle.create bundle) in
      let corpus = Corpus.create () in
      List.iter (Corpus.add corpus) tpl;
      let have = Hashtbl.create 32 in
      List.iter (fun s -> Hashtbl.replace have (Bitstring.to_hex s) ()) tpl;
      out :=
        {
          id = i;
          oracle;
          prng = streams.(i);
          corpus;
          known = Hashtbl.create 64;
          have;
          seen = Hashtbl.create 8;
          left;
          ran = 0;
          pending = tpl;
          new_labels = [];
          new_entries = [];
        }
        :: !out
    end
  done;
  Array.of_list !out

let distribute st ~labels ~entries =
  List.iter
    (fun l ->
      if not (Hashtbl.mem st.known l) then begin
        Hashtbl.replace st.known l ();
        ignore (Coverage.note (Oracle.coverage st.oracle) l)
      end)
    labels;
  List.iter
    (fun e ->
      let key = Bitstring.to_hex e in
      if not (Hashtbl.mem st.have key) then begin
        Hashtbl.replace st.have key ();
        Corpus.add st.corpus e
      end)
    entries

(* one window of guided executions; [inputs] collects every executed
   input and [sightings] each shard's first sighting per fingerprint *)
let window ly layout st ~inputs ~sightings =
  for _ = 1 to min sync_batch st.left do
    st.ran <- st.ran + 1;
    st.left <- st.left - 1;
    let input, parent =
      match st.pending with
      | s :: rest ->
          st.pending <- rest;
          (s, None)
      | [] ->
          time ly.mutate (fun () ->
              let p = Corpus.pick st.corpus st.prng in
              (Mutate.mutate layout st.prng (Corpus.bits p), Some p))
    in
    inputs := input :: !inputs;
    let cov = Oracle.coverage st.oracle in
    let before = Coverage.edges cov in
    let x = (time ly.exec (fun () -> Oracle.exec_batch st.oracle [| input |])).(0) in
    (match parent with
    | Some p when Coverage.edges cov > before ->
        Corpus.add st.corpus input;
        Corpus.reward st.corpus p;
        let key = Bitstring.to_hex input in
        if not (Hashtbl.mem st.have key) then begin
          Hashtbl.replace st.have key ();
          st.new_entries <- input :: st.new_entries
        end
    | Some _ | None -> ());
    match x.Oracle.x_divergence with
    | Some d when not (Hashtbl.mem st.seen d.Oracle.d_fingerprint) ->
        Hashtbl.replace st.seen d.Oracle.d_fingerprint ();
        let gindex = ((st.ran - 1) * shards) + st.id + 1 in
        sightings := (gindex, input, d.Oracle.d_fingerprint, st) :: !sightings
    | Some _ | None -> ()
  done;
  st.new_labels <-
    List.filter (fun l -> not (Hashtbl.mem st.known l)) (Coverage.labels (Oracle.coverage st.oracle))

let replica ly ~seed ~budget =
  let layout = Mutate.layout_of bundle in
  let active = make_shards ly ~seed ~budget in
  let labels_ch = Epoch.create () and entries_ch = Epoch.create () in
  let mine = Array.map (fun st -> (st, Epoch.cursor (), Epoch.cursor ())) active in
  let inputs = ref [] and sightings = ref [] in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iter
      (fun (st, lcur, ecur) ->
        if st.left > 0 then begin
          progressed := true;
          distribute st ~labels:(Epoch.drain labels_ch lcur) ~entries:(Epoch.drain entries_ch ecur);
          Oracle.with_batch st.oracle (fun () -> window ly layout st ~inputs ~sightings);
          Epoch.publish labels_ch st.new_labels;
          List.iter (fun l -> Hashtbl.replace st.known l ()) st.new_labels;
          Epoch.publish entries_ch (List.rev st.new_entries);
          st.new_labels <- [];
          st.new_entries <- []
        end)
      mine
  done;
  (* first sighting per fingerprint in global execution order, shrunk
     and attributed on the oracle of the shard that found it *)
  let firsts = Hashtbl.create 8 in
  let divs =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !sightings
    |> List.filter_map (fun (_, input, fp, st) ->
           if Hashtbl.mem firsts fp then None
           else begin
             Hashtbl.replace firsts fp ();
             let repro =
               time ly.minimize (fun () ->
                   Fuzz.Minimize.minimize st.oracle layout ~fingerprint:fp input)
             in
             let quirks = time ly.attribute (fun () -> Oracle.attribute st.oracle repro) in
             Some (fp, List.map Sdnet.Quirks.name quirks)
           end)
  in
  (divs, Array.of_list (List.rev !inputs))

let traced ~seed =
  let seed = seed * 1000 in
  let t0 = now_ns () in
  let r = campaign ~budget ~seed in
  let untraced_ns = now_ns () - t0 in
  let ly =
    {
      create = layer "fuzz.oracle.create";
      mutate = layer "fuzz.mutate";
      exec = layer "fuzz.oracle.exec_batch";
      minimize = layer "fuzz.minimize";
      attribute = layer "fuzz.oracle.attribute";
    }
  in
  let t1 = now_ns () in
  let divs, inputs = replica ly ~seed ~budget in
  let traced_ns = now_ns () - t1 in
  if fingerprints divs <> fingerprints (report_divergences r) then
    raise
      (Replica_diverged
         (Printf.sprintf "fuzz replica found {%s}, Campaign.run {%s}"
            (String.concat "; " (fingerprints divs))
            (String.concat "; " (fingerprints (report_divergences r)))));
  (* the two sides of exec_batch, replayed on the same inputs through a
     deployment set up as the oracle's: spec interpretation and its
     coverage, then the device batch with the oracle's register reset *)
  let interp = layer "p4ir.interp.process" in
  let record = layer "fuzz.coverage.record_spec" in
  let inject_batch = layer "target.device.inject_batch" in
  let h = Harness.deploy ~span_sampling:0 bundle in
  let device = h.Harness.device in
  let cov = Coverage.create () in
  Coverage.attach_device cov device;
  let program = bundle.P4ir.Programs.program and rt = Device.runtime device in
  Array.iter
    (fun input ->
      let obs =
        time interp (fun () ->
            P4ir.Interp.process program rt ~ingress_port:Harness.generator_port input)
      in
      time record (fun () -> Coverage.record_spec cov obs))
    inputs;
  let n = Array.length inputs in
  let i = ref 0 in
  while !i < n do
    let chunk = Array.sub inputs !i (min sync_batch (n - !i)) in
    ignore
      (time inject_batch (fun () ->
           Device.inject_batch device ~source:Device.Generator ~reset_registers:true chunk));
    ignore (Device.outputs device);
    i := !i + sync_batch
  done;
  let glue =
    derived "fuzz.oracle.glue" ~like:ly.exec
      ~ns:(ly.exec.l_ns - interp.l_ns - record.l_ns - inject_batch.l_ns)
      ~words:(ly.exec.l_words - interp.l_words - record.l_words - inject_batch.l_words)
  in
  let top = [ ly.create; ly.mutate; ly.exec; ly.minimize; ly.attribute ] in
  let total = r.Campaign.rp_total_executions and execs = r.Campaign.rp_executions in
  {
    tr_units = execs;
    tr_failed = (if divergences_ok (report_divergences r) then 0 else execs);
    tr_layers = top @ [ interp; record; inject_batch; glue ];
    tr_counts =
      [
        ("fuzz.edges", float_of_int r.Campaign.rp_edges);
        ("fuzz.corpus", float_of_int r.Campaign.rp_corpus);
        ("fuzz.divergences", float_of_int (List.length r.Campaign.rp_divergences));
        ("fuzz.replay_share", float_of_int (total - execs) /. float_of_int total);
      ];
    tr_residual = residual ~e2e_ns:untraced_ns top;
    tr_unisolated =
      "Campaign.run's shard scheduler: the Par.Pool run, Epoch merges, corpus and coverage \
       bookkeeping, report assembly";
    tr_overhead = float_of_int traced_ns /. float_of_int untraced_ns;
  }
