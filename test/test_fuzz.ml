(* Tests for the coverage-guided differential fuzzing engine: coverage
   map, mutators, corpus scheduling, oracle, minimizer and campaigns. *)

module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Coverage = Fuzz.Coverage
module Mutate = Fuzz.Mutate
module Corpus = Fuzz.Corpus
module Oracle = Fuzz.Oracle
module Campaign = Fuzz.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------------- coverage map ---------------- *)

let test_coverage_interning () =
  let c = Coverage.create () in
  check_bool "first sighting is new" true (Coverage.note c "a");
  check_bool "second sighting is old" false (Coverage.note c "a");
  check_bool "distinct label is new" true (Coverage.note c "b");
  check_int "two edges" 2 (Coverage.edges c);
  check_bool "labels retained" true (List.mem "a" (Coverage.labels c))

let test_coverage_growth () =
  (* the bitmap grows transparently past its initial capacity *)
  let c = Coverage.create () in
  for i = 0 to 4999 do
    ignore (Coverage.note c (string_of_int i))
  done;
  check_int "5000 edges" 5000 (Coverage.edges c);
  check_bool "re-noting stays old" false (Coverage.note c "4999")

(* ---------------- mutators ---------------- *)

let test_layout_fields () =
  let layout = Mutate.layout_of Programs.basic_router in
  check_bool "ethernet+ipv4 fields present" true (Array.length layout.Mutate.fields >= 10);
  check_bool "dictionary harvested" true (Array.length layout.Mutate.dict > 0);
  (* offsets are within the packet prefix they describe *)
  Array.iter
    (fun f ->
      check_bool "field fits" true
        (f.Mutate.fl_off + f.Mutate.fl_width <= layout.Mutate.total_bits))
    layout.Mutate.fields

let test_mutate_deterministic () =
  let layout = Mutate.layout_of Programs.basic_router in
  let seed = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000001L ()) in
  let a = List.init 50 (fun _ -> Mutate.mutate layout (Prng.create 9) seed) in
  (* same PRNG seed, same children *)
  let b = List.init 50 (fun _ -> Mutate.mutate layout (Prng.create 9) seed) in
  ignore a;
  ignore b;
  let p1 = Prng.create 9 and p2 = Prng.create 9 in
  for _ = 1 to 50 do
    check_bool "replayed mutation identical" true
      (Bitstring.equal (Mutate.mutate layout p1 seed) (Mutate.mutate layout p2 seed))
  done

(* ---------------- corpus ---------------- *)

let test_corpus_energy () =
  let c = Corpus.create () in
  Corpus.add c (Bitstring.of_hex "aa");
  Corpus.add c (Bitstring.of_hex "bb");
  check_int "two inputs" 2 (Corpus.size c);
  let item = Corpus.pick c (Prng.create 3) in
  (* rewards double energy up to the cap, so picks stay total-preserving *)
  for _ = 1 to 10 do
    Corpus.reward c item
  done;
  let prng = Prng.create 4 in
  for _ = 1 to 100 do
    ignore (Corpus.pick c prng)
  done;
  check_int "corpus unchanged by picks" 2 (Corpus.size c)

(* ---------------- campaigns ---------------- *)

let guided = lazy (Campaign.run ~budget:2000 ~seed:1 Programs.basic_router)

let test_campaign_deterministic () =
  let a = Lazy.force guided in
  let b = Campaign.run ~budget:2000 ~seed:1 Programs.basic_router in
  check_string "equal seeds render bit-identically" (Campaign.render a)
    (Campaign.render b)

let test_campaign_finds_reject_unimplemented () =
  (* the acceptance regression: on basic_router under the shipped quirks,
     a small guided campaign must rediscover the reject-unimplemented
     divergence and attribute it by knock-out *)
  let r = Lazy.force guided in
  check_bool "at least one divergence" true (List.length r.Campaign.rp_divergences >= 1);
  check_bool "attributed to reject-unimplemented" true
    (List.exists
       (fun d -> List.mem Quirks.Reject_unimplemented d.Campaign.dv_quirks)
       r.Campaign.rp_divergences)

let test_campaign_faithful_is_clean () =
  let r = Campaign.run ~quirks:Quirks.none ~budget:2000 ~seed:1 Programs.basic_router in
  check_int "no divergences against a faithful device" 0
    (List.length r.Campaign.rp_divergences)

(* the symbolic oracle's path-covering vectors for [b], as
   [netdebug testgen --emit-corpus] writes them *)
let testgen_corpus b =
  let rt = P4ir.Runtime.create () in
  (match P4ir.Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Symexec.Testgen.packets
    (Symexec.Testgen.generate ~ingress_port:Netdebug.Harness.generator_port
       b.Programs.program rt)

let test_seed_corpus_reaches_guided_coverage () =
  (* the oracle loop: a corpus of symbolic-execution covering vectors
     must reach the guided campaign's edge count with zero random
     discovery. Every shard holds the full corpus as pending seeds, so
     budget = shards * |corpus| replays seeds only — no mutation ever
     runs *)
  let b = Programs.basic_router in
  let corpus = testgen_corpus b in
  check_bool "corpus is path-covering" true (List.length corpus >= 8);
  let budget = 8 * List.length corpus in
  let seeded = Campaign.run ~seed_corpus:corpus ~budget ~seed:1 b in
  let guided = Lazy.force guided in
  check_bool
    (Printf.sprintf "seeded (%d edges, %d execs) >= guided (%d edges, %d execs)"
       seeded.Campaign.rp_edges seeded.Campaign.rp_executions guided.Campaign.rp_edges
       guided.Campaign.rp_executions)
    true
    (seeded.Campaign.rp_edges >= guided.Campaign.rp_edges);
  (* the hardened drop-path witnesses expose the reject quirk directly *)
  check_bool "seed corpus alone finds a divergence" true
    (List.length seeded.Campaign.rp_divergences >= 1)

let test_guided_beats_blind () =
  let budget = 600 in
  let g = Campaign.run ~budget ~seed:1 Programs.basic_router in
  let b = Campaign.run_blind ~budget ~seed:1 Programs.basic_router in
  check_bool
    (Printf.sprintf "guided (%d edges) > blind (%d edges) at equal budget"
       g.Campaign.rp_edges b.Campaign.rp_edges)
    true
    (g.Campaign.rp_edges > b.Campaign.rp_edges)

let test_campaign_jobs_invariant () =
  (* the tentpole guarantee: jobs only schedules the fixed logical shards
     onto domains, so any jobs value renders byte-identically *)
  let seq = Lazy.force guided in
  let par = Campaign.run ~jobs:4 ~budget:2000 ~seed:1 Programs.basic_router in
  check_string "guided: jobs=4 renders identically to jobs=1" (Campaign.render seq)
    (Campaign.render par);
  (* a seed corpus replays first, then mutates its own entries *)
  let seed_corpus = testgen_corpus Programs.basic_router in
  let seeded jobs =
    Campaign.run ~jobs ~seed_corpus ~budget:2000 ~seed:1 Programs.basic_router
  in
  check_string "seed corpus: jobs=4 renders identically to jobs=1"
    (Campaign.render (seeded 1))
    (Campaign.render (seeded 4));
  let bseq = Campaign.run_blind ~budget:500 ~seed:7 Programs.basic_router in
  let bpar = Campaign.run_blind ~jobs:3 ~budget:500 ~seed:7 Programs.basic_router in
  check_string "blind: jobs=3 renders identically to jobs=1" (Campaign.render bseq)
    (Campaign.render bpar)

let test_campaign_odd_budgets () =
  (* budgets below / not divisible by the shard count still run exactly
     [budget] executions with in-range discovery indices *)
  List.iter
    (fun budget ->
      let r = Campaign.run ~jobs:2 ~budget ~seed:3 Programs.basic_router in
      check_int
        (Printf.sprintf "budget %d spent exactly" budget)
        budget r.Campaign.rp_executions;
      List.iter
        (fun d ->
          check_bool "found_at within budget" true
            (d.Campaign.dv_found_at >= 1 && d.Campaign.dv_found_at <= budget))
        r.Campaign.rp_divergences)
    [ 1; 5; 8; 13; 100 ]

let test_campaign_rejects_zero_budget () =
  Alcotest.check_raises "budget must be positive"
    (Invalid_argument "Fuzz.Campaign.run: budget must be positive") (fun () ->
      ignore (Campaign.run ~budget:0 ~seed:1 Programs.basic_router))

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_report_golden () =
  let r = Lazy.force guided in
  check_string "report matches golden" (read_file "fuzz_report.golden") (Campaign.render r)

(* fuzz_digest.golden: one line per configuration, the MD5 of its
   rendered report at budget 2000 — pins more campaigns than the one
   full golden, at jobs 1 and 4 *)
let test_report_digests () =
  let configs =
    [
      (Programs.basic_router, 1, false);
      (Programs.basic_router, 2, false);
      (Programs.basic_router, 3, false);
      (Programs.acl_firewall, 5, false);
      (Programs.calc, 5, false);
      (Programs.parser_guard, 5, false);
      (Programs.basic_router, 1, true);
    ]
  in
  let digests jobs =
    String.concat ""
      (List.map
         (fun (b, seed, testgen) ->
           let seed_corpus = if testgen then Some (testgen_corpus b) else None in
           let r = Campaign.run ?seed_corpus ~jobs ~budget:2000 ~seed b in
           Printf.sprintf "%s seed %d corpus %s: %s\n" b.Programs.program.P4ir.Ast.p_name
             seed
             (if testgen then "testgen" else "templates")
             (Digest.to_hex (Digest.string (Campaign.render r))))
         configs)
  in
  let golden = read_file "fuzz_digest.golden" in
  List.iter
    (fun jobs ->
      check_string (Printf.sprintf "jobs=%d digests match golden" jobs) golden (digests jobs))
    [ 1; 4 ]

(* ---------------- batched oracle ---------------- *)

let test_exec_batch_singleton_identity () =
  (* exec_batch [| x |] is observably identical to execute x: same
     verdicts, same execution counters, same coverage map *)
  let inputs = Array.of_list (Netdebug.Vectors.fuzz ~seed:5 ~count:40 ()) in
  let one = Oracle.create Programs.basic_router in
  let batched = Oracle.create Programs.basic_router in
  let dev = function
    | Oracle.Dev_forwarded (p, bits) -> Printf.sprintf "fwd:%d:%s" p (Bitstring.to_hex bits)
    | Oracle.Dev_dropped -> "drop"
  in
  let fp = function None -> "-" | Some d -> d.Oracle.d_fingerprint in
  Array.iter
    (fun x ->
      let a = Oracle.execute one x in
      let b = (Oracle.exec_batch batched [| x |]).(0) in
      check_string "same device result" (dev a.Oracle.x_dev) (dev b.Oracle.x_dev);
      check_string "same fingerprint" (fp a.Oracle.x_divergence) (fp b.Oracle.x_divergence))
    inputs;
  check_int "same executions" (Oracle.executions one) (Oracle.executions batched);
  check_int "same coverage edges"
    (Coverage.edges (Oracle.coverage one))
    (Coverage.edges (Oracle.coverage batched));
  Alcotest.(check (list string))
    "same coverage labels"
    (List.sort compare (Coverage.labels (Oracle.coverage one)))
    (List.sort compare (Coverage.labels (Oracle.coverage batched)))

(* The management-protocol reference for the oracle's device side, kept
   test-local: a checker rule failing on every emission mirrors it into
   the capture ring, and each input goes out as a one-packet stream over
   the wire from zeroed registers. *)
let protocol_device bundle =
  let h = Netdebug.Harness.deploy ~quirks:Quirks.default ~span_sampling:0 bundle in
  let ctl = h.Netdebug.Harness.controller in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let mirror =
    Netdebug.Controller.expect ~name:"mirror" (P4ir.Ast.Const P4ir.Value.fls)
  in
  ok (Netdebug.Controller.configure_checker ctl [ mirror ]);
  fun input ->
    P4ir.Regstate.reset (Target.Device.registers h.Netdebug.Harness.device);
    ok (Netdebug.Controller.clear_test_state ctl);
    ok (Netdebug.Controller.configure_generator ctl [ Netdebug.Controller.stream input ]);
    ok (Netdebug.Controller.start_generator ctl);
    match (ok (Netdebug.Controller.read_checker ctl)).Netdebug.Wire.cs_captures with
    | c :: _ -> Oracle.Dev_forwarded (c.Netdebug.Wire.cap_port, c.Netdebug.Wire.cap_bits)
    | [] -> Oracle.Dev_dropped

let test_execute_matches_protocol () =
  (* execute (one-element windows) and exec_batch (one window) observe
     what the protocol reference observes, and judge it the same way, on
     a quirky deployment where both verdict kinds appear *)
  let inputs =
    Array.of_list
      (List.map Packet.serialize
         [
           Packet.udp_ipv4 ~dst:0x0A000001L ();
           Packet.udp_ipv4 ~dst:0x0A010203L ~ttl:1L ();
           Packet.arp_request ();
           Packet.map_ipv4
             (fun ip -> { ip with Packet.Ipv4.checksum = 0xBADL })
             (Packet.udp_ipv4 ());
         ]
      @ Netdebug.Vectors.fuzz ~seed:5 ~count:40 ())
  in
  let reference = Array.map (protocol_device Programs.basic_router) inputs in
  let single = Array.map (Oracle.execute (Oracle.create Programs.basic_router)) inputs in
  let window = Oracle.exec_batch (Oracle.create Programs.basic_router) inputs in
  let dev = function
    | Oracle.Dev_forwarded (p, bits) -> Printf.sprintf "fwd:%d:%s" p (Bitstring.to_hex bits)
    | Oracle.Dev_dropped -> "drop"
  in
  let agrees spec d =
    match (spec, d) with
    | P4ir.Interp.Forwarded (p, out), Oracle.Dev_forwarded (q, bits) ->
        p = q && Bitstring.equal out bits
    | P4ir.Interp.Dropped _, Oracle.Dev_dropped -> true
    | _ -> false
  in
  check_bool "both verdict kinds appear" true
    (Array.exists (fun x -> x.Oracle.x_divergence = None) single
    && Array.exists (fun x -> x.Oracle.x_divergence <> None) single);
  Array.iteri
    (fun i ref_dev ->
      List.iter
        (fun (what, (x : Oracle.exec)) ->
          check_string
            (Printf.sprintf "%s input %d: device side" what i)
            (dev ref_dev) (dev x.Oracle.x_dev);
          check_bool
            (Printf.sprintf "%s input %d: verdict" what i)
            (agrees x.Oracle.x_spec ref_dev) (x.Oracle.x_divergence = None))
        [ ("execute", single.(i)); ("exec_batch", window.(i)) ])
    reference

(* ---------------- qcheck properties ---------------- *)

(* Minimized reproducers are standalone: replayed on a fresh oracle they
   still diverge, with the same fingerprint the campaign deduped on. *)
let prop_minimized_repros_still_diverge =
  QCheck.Test.make ~count:4 ~name:"minimized repros still diverge"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let r = Campaign.run ~budget:300 ~seed Programs.basic_router in
      List.for_all
        (fun d ->
          let oracle = Oracle.create ~quirks:r.Campaign.rp_quirks Programs.basic_router in
          match (Oracle.execute oracle d.Campaign.dv_repro).Oracle.x_divergence with
          | Some dd -> String.equal dd.Oracle.d_fingerprint d.Campaign.dv_fingerprint
          | None -> false)
        r.Campaign.rp_divergences)

(* Minimization never grows the input. *)
let prop_repro_no_larger =
  QCheck.Test.make ~count:4 ~name:"minimized repro never larger than the input"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let r = Campaign.run ~budget:300 ~seed Programs.basic_router in
      List.for_all
        (fun d ->
          Bitstring.length d.Campaign.dv_repro <= Bitstring.length d.Campaign.dv_input)
        r.Campaign.rp_divergences)

let () =
  Alcotest.run "fuzz"
    [
      ( "coverage",
        [
          Alcotest.test_case "label interning" `Quick test_coverage_interning;
          Alcotest.test_case "bitmap growth" `Quick test_coverage_growth;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "layout of basic_router" `Quick test_layout_fields;
          Alcotest.test_case "deterministic replay" `Quick test_mutate_deterministic;
        ] );
      ("corpus", [ Alcotest.test_case "energy scheduling" `Quick test_corpus_energy ]);
      ( "campaign",
        [
          Alcotest.test_case "determinism" `Quick test_campaign_deterministic;
          Alcotest.test_case "rediscovers reject-unimplemented" `Quick
            test_campaign_finds_reject_unimplemented;
          Alcotest.test_case "faithful device is clean" `Quick
            test_campaign_faithful_is_clean;
          Alcotest.test_case "guided beats blind" `Quick test_guided_beats_blind;
          Alcotest.test_case "seed corpus reaches guided coverage" `Quick
            test_seed_corpus_reaches_guided_coverage;
          Alcotest.test_case "jobs invariance" `Quick test_campaign_jobs_invariant;
          Alcotest.test_case "odd budgets" `Quick test_campaign_odd_budgets;
          Alcotest.test_case "zero budget rejected" `Quick
            test_campaign_rejects_zero_budget;
          Alcotest.test_case "golden report" `Quick test_report_golden;
          Alcotest.test_case "golden report digests" `Quick test_report_digests;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exec_batch singleton identity" `Quick
            test_exec_batch_singleton_identity;
          Alcotest.test_case "execute matches the protocol reference" `Quick
            test_execute_matches_protocol;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_minimized_repros_still_diverge;
          QCheck_alcotest.to_alcotest prop_repro_no_larger;
        ] );
    ]
