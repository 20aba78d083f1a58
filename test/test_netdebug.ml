(* Integration tests for the NetDebug framework: wire protocol, channel,
   generator, checker, controller, harness, localization and use-cases. *)

module Ast = P4ir.Ast
module Value = P4ir.Value
module Programs = P4ir.Programs
module Runtime = P4ir.Runtime
module Dsl = P4ir.Dsl
module Device = Target.Device
module Fault = Target.Fault
module Quirks = Sdnet.Quirks
module Bitstring = Bitutil.Bitstring
module Wire = Netdebug.Wire
module Channel = Netdebug.Channel
module Controller = Netdebug.Controller
module Harness = Netdebug.Harness
module Localize = Netdebug.Localize
module Usecases = Netdebug.Usecases
module Vectors = Netdebug.Vectors
module P = Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ---------------- wire protocol ---------------- *)

let sample_expr =
  Dsl.(
    (fld "ipv4" "ttl" ==: const ~width:8 63)
    &&: (Ast.Std Ast.Egress_spec ==: const ~width:9 1)
    ||: lnot (valid "vlan"))

let test_wire_expr_roundtrip () =
  let b = Buffer.create 64 in
  Wire.encode_expr b sample_expr;
  let decoded = Wire.decode_expr (Buffer.contents b) (ref 0) in
  check_bool "expr roundtrip" true (decoded = sample_expr)

let test_wire_host_roundtrip () =
  let msgs =
    [
      Wire.Configure_generator
        [
          {
            Wire.s_template = Bitstring.of_hex "deadbeef";
            s_count = 100;
            s_interval_ns = 12.5;
            s_mutations =
              [
                Wire.Set_field ("ipv4", "ttl", 3L);
                Wire.Sweep_field ("ipv4", "dst", 0x0A000000L, 7L);
                Wire.Random_field ("udp", "src_port", 99);
              ];
          };
        ];
      Wire.Configure_checker
        [
          { Wire.r_name = "r1"; r_filter = Some sample_expr; r_expect = sample_expr };
          { Wire.r_name = "r2"; r_filter = None; r_expect = Ast.Valid "eth" };
        ];
      Wire.Start_generator;
      Wire.Read_register ("kv_store");
      Wire.Read_checker;
      Wire.Read_status;
      Wire.Read_stage_counters;
      Wire.Clear_test_state;
    ]
  in
  List.iter
    (fun m ->
      match Wire.decode_host (Wire.encode_host m) with
      | Ok m' -> check_bool "host roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    msgs

let test_wire_dev_roundtrip () =
  let msgs =
    [
      Wire.Ack;
      Wire.Error_msg "boom";
      Wire.Checker_report
        {
          Wire.cs_total_seen = 42;
          cs_rules = [ { Wire.rs_name = "r"; rs_matched = 10; rs_passed = 9; rs_failed = 1 } ];
          cs_captures =
            [
              {
                Wire.cap_rule = "r";
                cap_port = 3;
                cap_time_ns = 123.0;
                cap_bits = Bitstring.of_hex "aa55";
              };
            ];
          cs_pps = 1e6;
          cs_gbps = 9.5;
          cs_lat_mean_ns = 140.0;
          cs_lat_p50_ns = 130.0;
          cs_lat_p99_ns = 200.0;
        };
      Wire.Status_report
        {
          Wire.ss_time_ns = 5.0;
          ss_packets_in = 10L;
          ss_packets_out = 9L;
          ss_queue_drops = 1L;
          ss_pipeline_drops = 0L;
          ss_queue_depth = 2;
        };
      Wire.Stage_counters [ ("stage/parser/seen", 7L) ];
      Wire.Register_dump [ (3, 0xAAL); (200, 0xBBL) ];
    ]
  in
  List.iter
    (fun m ->
      match Wire.decode_dev (Wire.encode_dev m) with
      | Ok m' -> check_bool "dev roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    msgs

let test_wire_rejects_garbage () =
  (match Wire.decode_host "\xFF" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad tag");
  match Wire.decode_host ((Wire.encode_host Wire.Start_generator) ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing bytes"

(* a rule nested one level past the decoder's bound is an [Error], not a
   [Stack_overflow]; one at the bound still decodes *)
let test_wire_expr_depth_bound () =
  let rec nest n e = if n = 0 then e else nest (n - 1) (Ast.Un (Ast.LNot, e)) in
  let msg depth =
    Wire.Configure_checker
      [ { Wire.r_name = "deep"; r_filter = None; r_expect = nest (depth - 1) (Ast.Valid "eth") } ]
  in
  let at_bound = msg Wire.max_expr_depth in
  (match Wire.decode_host (Wire.encode_host at_bound) with
  | Ok m -> check_bool "decodes at the bound" true (m = at_bound)
  | Error e -> Alcotest.fail e);
  match Wire.decode_host (Wire.encode_host (msg (Wire.max_expr_depth + 1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an expression past the depth bound"

let prop_wire_stream_roundtrip =
  QCheck.Test.make ~count:200 ~name:"generator config wire roundtrip"
    QCheck.(triple (int_bound 1000) (int_bound 500) (list_of_size (QCheck.Gen.int_range 0 5) (pair small_string (int_bound 1000))))
    (fun (count, nbits, muts) ->
      let prng = Bitutil.Prng.create (count + nbits) in
      let stream =
        {
          Wire.s_template = Bitstring.random prng (max 1 nbits);
          s_count = count;
          s_interval_ns = float_of_int nbits *. 0.5;
          s_mutations = List.map (fun (h, v) -> Wire.Set_field (h, "f", Int64.of_int v)) muts;
        }
      in
      match Wire.decode_host (Wire.encode_host (Wire.Configure_generator [ stream ])) with
      | Ok (Wire.Configure_generator [ s' ]) ->
          Bitstring.equal s'.Wire.s_template stream.Wire.s_template
          && s'.Wire.s_count = stream.Wire.s_count
          && s'.Wire.s_mutations = stream.Wire.s_mutations
      | _ -> false)

(* ---------------- channel ---------------- *)

let test_channel_fifo () =
  let a, b = Channel.create () in
  Channel.send a "one";
  Channel.send a "two";
  Alcotest.(check (option string)) "fifo 1" (Some "one") (Channel.recv b);
  Alcotest.(check (option string)) "fifo 2" (Some "two") (Channel.recv b);
  Alcotest.(check (option string)) "empty" None (Channel.recv b);
  Channel.send b "reply";
  Alcotest.(check (option string)) "reverse" (Some "reply") (Channel.recv a);
  check_int "bytes counted" 6 (Channel.bytes_sent a)

(* ---------------- harness / generator / checker ---------------- *)

let test_harness_self_check () =
  let h = Harness.deploy Programs.basic_router in
  match Harness.self_check h with
  | Ok facts -> check_bool "several facts" true (List.length facts >= 3)
  | Error e -> Alcotest.fail e

(* the artifact directory is created with its missing parents; a path
   through a regular file is an error, not an exception *)
let test_export_artifacts_nested_dir () =
  let root = Filename.temp_file "netdebug_artifacts" "" in
  Sys.remove root;
  let parent = Filename.concat root "a" in
  let dir = Filename.concat parent "b" in
  let h = Harness.deploy Programs.basic_router in
  let paths = Harness.export_artifacts h ~dir in
  Alcotest.(check (list string))
    "three files"
    (List.map (Filename.concat dir) [ "trace.json"; "spans.jsonl"; "metrics.prom" ])
    paths;
  List.iter (fun p -> check_bool (p ^ " written") true (Sys.file_exists p)) paths;
  check_bool "a path under a regular file is refused" true
    (Result.is_error (Telemetry.Export.mkdir_p (Filename.concat (List.hd paths) "c")));
  List.iter Sys.remove paths;
  List.iter Sys.rmdir [ dir; parent; root ]

let test_generator_injects_through_pipeline () =
  let h = Harness.deploy Programs.basic_router in
  let probe = P.serialize (P.udp_ipv4 ~dst:0x0A000005L ()) in
  ok (Controller.configure_checker h.Harness.controller []);
  ok (Controller.configure_generator h.Harness.controller
        [ Controller.stream ~count:10 probe ]);
  ok (Controller.start_generator h.Harness.controller);
  let summary = ok (Controller.read_checker h.Harness.controller) in
  check_int "all 10 reached the check point" 10 summary.Wire.cs_total_seen

let test_generator_sweep_mutation () =
  (* sweep the destination across both routes: 10.0/8 -> port 1 and
     10.1/16 -> port 2 *)
  let h = Harness.deploy Programs.basic_router in
  let ctl = h.Harness.controller in
  let probe = P.serialize (P.udp_ipv4 ~dst:0x0A000000L ()) in
  ok (Controller.configure_checker ctl [ Controller.expect_port 1 ]);
  ok
    (Controller.configure_generator ctl
       [
         Controller.stream ~count:8
           ~mutations:[ Wire.Sweep_field ("ipv4", "dst", 0x0A000001L, 0x00010000L) ]
           probe;
       ]);
  ok (Controller.start_generator ctl);
  let summary = ok (Controller.read_checker ctl) in
  (* dsts 10.0.0.1, 10.1.0.1, 10.2.0.1 ... : exactly one lands in 10.1/16 *)
  match summary.Wire.cs_rules with
  | [ rs ] ->
      check_int "all emitted" 8 rs.Wire.rs_matched;
      check_int "one escapes to port 2" 1 rs.Wire.rs_failed
  | _ -> Alcotest.fail "one rule expected"

let test_generator_checksum_refresh () =
  (* sweeping ipv4.dst invalidates the checksum; the generator must repair
     it or the DUT parser would drop every swept packet *)
  let h = Harness.deploy Programs.basic_router in
  let ctl = h.Harness.controller in
  let probe = P.serialize (P.udp_ipv4 ~dst:0x0A000001L ()) in
  ok (Controller.configure_checker ctl []);
  ok
    (Controller.configure_generator ctl
       [
         Controller.stream ~count:5
           ~mutations:[ Wire.Sweep_field ("ipv4", "dst", 0x0A000001L, 1L) ]
           probe;
       ]);
  ok (Controller.start_generator ctl);
  let summary = ok (Controller.read_checker ctl) in
  check_int "none dropped at the verify step" 5 summary.Wire.cs_total_seen

let test_generator_deliberate_bad_checksum () =
  (* mutating the checksum field itself must NOT be repaired *)
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let ctl = h.Harness.controller in
  let probe = P.serialize (P.udp_ipv4 ~dst:0x0A000001L ()) in
  ok (Controller.configure_checker ctl []);
  ok
    (Controller.configure_generator ctl
       [
         Controller.stream ~count:3
           ~mutations:[ Wire.Set_field ("ipv4", "checksum", 0xDEADL) ]
           probe;
       ]);
  ok (Controller.start_generator ctl);
  let summary = ok (Controller.read_checker ctl) in
  check_int "all dropped by checksum verify" 0 summary.Wire.cs_total_seen

let test_checker_filter_and_captures () =
  let h = Harness.deploy Programs.basic_router in
  let ctl = h.Harness.controller in
  (* rule applies only to packets leaving on port 2; expect ttl == 63 *)
  let filter = Dsl.(Ast.Std Ast.Egress_spec ==: const ~width:9 2) in
  let rule =
    Controller.expect ~filter ~name:"ttl-on-port2"
      Dsl.(fld "ipv4" "ttl" ==: const ~width:8 63)
  in
  ok (Controller.configure_checker ctl [ rule ]);
  let send dst ttl =
    ok
      (Controller.configure_generator ctl
         [ Controller.stream (P.serialize (P.udp_ipv4 ~dst ~ttl ())) ]);
    ok (Controller.start_generator ctl)
  in
  send 0x0A000005L 64L (* port 1: filtered out *);
  send 0x0A010005L 64L (* port 2: ttl 63 after decrement -> pass *);
  send 0x0A010005L 10L (* port 2: ttl 9 -> fail + capture *);
  let summary = ok (Controller.read_checker ctl) in
  (match summary.Wire.cs_rules with
  | [ rs ] ->
      check_int "matched only port-2 packets" 2 rs.Wire.rs_matched;
      check_int "one pass" 1 rs.Wire.rs_passed;
      check_int "one fail" 1 rs.Wire.rs_failed
  | _ -> Alcotest.fail "one rule expected");
  match summary.Wire.cs_captures with
  | [ cap ] ->
      check_int "captured on port 2" 2 cap.Wire.cap_port;
      (* captured packet carries the wrong ttl 9 *)
      let p = P.parse cap.Wire.cap_bits in
      (match P.find_ipv4 p with
      | Some ip -> Alcotest.(check int64) "captured ttl" 9L ip.P.Ipv4.ttl
      | None -> Alcotest.fail "no ipv4 in capture")
  | _ -> Alcotest.fail "one capture expected"

let test_checker_sees_parser_error_of_output () =
  (* under the reject quirk, garbage reaches the output; a checker rule on
     standard_metadata.parser_error flags malformed emissions *)
  let h = Harness.deploy ~quirks:Quirks.default Programs.parser_guard in
  let ctl = h.Harness.controller in
  let rule =
    Controller.expect ~name:"well-formed-output"
      Dsl.(Ast.Std Ast.Parser_error ==: const ~width:4 0)
  in
  ok (Controller.configure_checker ctl [ rule ]);
  let garbage =
    P.serialize
      (P.make [ P.Eth (P.Eth.make ~ethertype:0xBEEFL ()) ]
         ~payload:(P.payload_of_string "junk") ())
  in
  ok (Controller.configure_generator ctl [ Controller.stream garbage ]);
  ok (Controller.start_generator ctl);
  let summary = ok (Controller.read_checker ctl) in
  match summary.Wire.cs_rules with
  | [ rs ] -> check_int "malformed output flagged" 1 rs.Wire.rs_failed
  | _ -> Alcotest.fail "one rule expected"

let test_register_read_over_channel () =
  let h = Harness.deploy ~quirks:Quirks.none P4ir.Programs.rate_limiter in
  (* consume some of port 0's budget to make the register non-zero *)
  let probe = P.serialize (P.udp_ipv4 ~dst:0x0A000005L ()) in
  ignore (Device.inject h.Harness.device ~source:(Device.External 0) probe);
  ignore (Device.inject h.Harness.device ~source:(Device.External 0) probe);
  (match Controller.read_register h.Harness.controller "port_counts" with
  | Ok [ (0, 2L) ] -> ()
  | Ok cells -> Alcotest.failf "unexpected cells (%d)" (List.length cells)
  | Error e -> Alcotest.fail e);
  match Controller.read_register h.Harness.controller "no_such_register" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown register accepted"

(* ---------------- the paper's case study, end to end ---------------- *)

let test_case_study_reject_bug_detected () =
  (* 1. formal verification of the spec: property holds *)
  let rt = Runtime.create () in
  ok
    (Runtime.install_all Programs.parser_guard.Programs.program rt
       Programs.parser_guard.Programs.entries
    |> Result.map_error (fun e -> e));
  let spec_finding =
    Symexec.Check.rejected_are_dropped Programs.parser_guard.Programs.program rt
  in
  Alcotest.(check string) "verification passes on the spec" "HOLDS"
    (Symexec.Check.verdict_to_string spec_finding.Symexec.Check.f_verdict);
  (* 2. NetDebug against the real (quirky) toolchain: bug caught *)
  let h = Harness.deploy ~quirks:Quirks.default Programs.parser_guard in
  let ctl = h.Harness.controller in
  ok (Controller.configure_checker ctl [ Controller.expect ~name:"no-output" (Ast.Const Value.fls) ]);
  let garbage =
    P.serialize
      (P.make [ P.Eth (P.Eth.make ~ethertype:0xBEEFL ()) ]
         ~payload:(P.payload_of_string "junk") ())
  in
  ok (Controller.configure_generator ctl [ Controller.stream ~count:4 garbage ]);
  ok (Controller.start_generator ctl);
  let summary = ok (Controller.read_checker ctl) in
  check_int "rejected packets were sent to the next hop" 4 summary.Wire.cs_total_seen;
  (* 3. and with a fixed compiler the same test passes *)
  let h2 = Harness.deploy ~quirks:Quirks.none Programs.parser_guard in
  let ctl2 = h2.Harness.controller in
  ok (Controller.configure_checker ctl2 [ Controller.expect ~name:"no-output" (Ast.Const Value.fls) ]);
  ok (Controller.configure_generator ctl2 [ Controller.stream ~count:4 garbage ]);
  ok (Controller.start_generator ctl2);
  let summary2 = ok (Controller.read_checker ctl2) in
  check_int "fixed toolchain drops them" 0 summary2.Wire.cs_total_seen

(* ---------------- localization ---------------- *)

let localization_probe = P.serialize (P.udp_ipv4 ~dst:0x0A000005L ())

let test_localize_healthy () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let verdict, _ = Localize.locate h ~probe:localization_probe in
  check_bool "healthy" true (verdict = Localize.Healthy)

let test_localize_stage_faults () =
  List.iter
    (fun stage ->
      let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
      Device.inject_fault h.Harness.device ~stage Fault.Drop_at_stage;
      let verdict, _ = Localize.locate h ~probe:localization_probe in
      match verdict with
      | Localize.Lost_in s -> Alcotest.(check string) ("fault at " ^ stage) stage s
      | v -> Alcotest.failf "fault at %s: got %s" stage (Localize.verdict_to_string v))
    [ "parser"; "ma:ipv4_lpm"; "egress"; "deparser" ]

let test_localize_broken_interface () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  Device.set_port_broken h.Harness.device 1 true;
  let verdict, evidence = Localize.locate h ~probe:localization_probe in
  (match verdict with
  | Localize.Lost_after_check_point 1 -> ()
  | v -> Alcotest.failf "got %s" (Localize.verdict_to_string v));
  check_bool "check point saw them" true (evidence.Localize.e_emitted >= 16);
  check_int "externally invisible" 0 evidence.Localize.e_external

let test_localize_program_drop () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let probe = P.serialize (P.udp_ipv4 ~dst:0x08080808L ()) in
  match fst (Localize.locate h ~probe) with
  | Localize.Dropped_by_program _ -> ()
  | v -> Alcotest.failf "got %s" (Localize.verdict_to_string v)

(* ---------------- use-cases ---------------- *)

let test_functional_clean_pass () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let r = Usecases.Functional.run ~fuzz:16 h in
  check_bool "no mismatches on a faithful device" true (Usecases.Functional.passed r);
  check_bool "covered several vectors" true (r.Usecases.Functional.fr_tested > 5)

let test_functional_detects_reject_quirk () =
  let h = Harness.deploy ~quirks:Quirks.default Programs.parser_guard in
  let r = Usecases.Functional.run ~fuzz:16 h in
  check_bool "mismatches found" true (not (Usecases.Functional.passed r))

let test_functional_detects_program_bug_with_oracle () =
  (* buggy_router deployed faithfully, but validated against the intended
     program (basic_router): functional testing finds the TTL bug *)
  let h = Harness.deploy ~quirks:Quirks.none Programs.buggy_router in
  let r = Usecases.Functional.run ~oracle:Programs.basic_router ~fuzz:8 h in
  check_bool "ttl bug found" true (not (Usecases.Functional.passed r));
  check_bool "mismatch mentions ttl" true
    (List.exists
       (fun m ->
         let got = m.Usecases.Functional.mm_got in
         let rec contains i =
           i + 3 <= String.length got && (String.sub got i 3 = "ttl" || contains (i + 1))
         in
         contains 0)
       r.Usecases.Functional.fr_mismatches)

let test_check_batch_restores_rules () =
  (* a vector's expected-field rules judge that vector only: once the
     batch is over, returned or raised, the checker holds the caller's
     rule set again and background traffic is not judged *)
  let h = Harness.deploy Programs.basic_router in
  let dev = h.Harness.device in
  let chk = Netdebug.Agent.checker h.Harness.agent in
  let metrics = Device.metrics dev in
  let judged () =
    ( Stats.Counter.get (Telemetry.Registry.counter metrics "checker/pass"),
      Stats.Counter.get (Telemetry.Registry.counter metrics "checker/fail") )
  in
  let oracle = Programs.basic_router in
  let rt = Usecases.Functional.oracle_runtime oracle in
  let fwd = P.serialize (P.udp_ipv4 ~dst:0x0A000001L ()) in
  let background () = ignore (Device.inject dev ~source:(Device.External 0) fwd) in
  let pre = Netdebug.Checker.rules chk in
  let verdicts = Usecases.Functional.check_batch oracle rt h [| fwd |] in
  check_bool "vector validated" true (verdicts.(0) = None);
  let after = judged () in
  check_bool "the vector was judged" true (fst after > 0L);
  background ();
  check_bool "background not judged" true (judged () = after);
  check_bool "pre-call rules re-armed" true (Netdebug.Checker.rules chk = pre);
  (* the second vector's emission raises from a device tap, after that
     vector's rules were armed *)
  let shots = ref 0 in
  Device.set_taps dev
    (Some
       {
         Device.tp_parse = ignore;
         tp_table = (fun ~table:_ ~hit:_ ~action:_ -> ());
         tp_disposition =
           (fun _ ->
             incr shots;
             if !shots = 2 then raise Exit);
       });
  (match Usecases.Functional.check_batch oracle rt h [| fwd; fwd |] with
  | _ -> Alcotest.fail "the batch should have raised"
  | exception Exit -> ());
  Device.set_taps dev None;
  let after = judged () in
  background ();
  check_bool "background not judged after a raise" true (judged () = after);
  check_bool "pre-call rules re-armed after a raise" true (Netdebug.Checker.rules chk = pre);
  (* a caller's own rules come back too *)
  let mine =
    [
      Controller.expect ~name:"mine"
        (Ast.Bin (Ast.Eq, Ast.Std Ast.Egress_spec, Ast.Const (Value.of_int ~width:9 1)));
    ]
  in
  Netdebug.Checker.configure chk mine;
  ignore (Usecases.Functional.check_batch oracle rt h [| fwd |]);
  check_bool "caller's rules re-armed" true (Netdebug.Checker.rules chk = mine);
  (* every other entry point that arms per-vector rules keeps the same
     contract *)
  List.iter
    (fun (what, entry) ->
      Netdebug.Checker.configure chk [];
      entry ();
      let after = judged () in
      background ();
      check_bool (what ^ ": background not judged") true (judged () = after);
      check_bool (what ^ ": nothing left armed") true (Netdebug.Checker.rules chk = []);
      Netdebug.Checker.configure chk mine;
      entry ();
      check_bool (what ^ ": caller's rules re-armed") true (Netdebug.Checker.rules chk = mine))
    [
      ("check_paths", fun () -> ignore (Usecases.Functional.check_paths h));
      ("stateful run", fun () -> ignore (Usecases.Functional.run ~stateful:true ~fuzz:4 h));
      ("run", fun () -> ignore (Usecases.Functional.run ~fuzz:4 h));
    ]

(* [check_vector]: the management-protocol reference for one functional
   vector, kept test-local: the spec's expected-output rules (egress port plus one
   equality per output header field) programmed over the wire, the
   vector as a one-packet stream, the checker's summary read back, and
   the verdict strings [Functional] reports. *)
let check_vector (oracle : Programs.bundle) rt (h : Harness.t) i packet =
  let program = oracle.Programs.program in
  let ctl = h.Harness.controller in
  let spec =
    (P4ir.Interp.process program rt ~ingress_port:Harness.generator_port packet)
      .P4ir.Interp.result
  in
  let fields_of bits =
    let env = P4ir.Env.create program in
    let ctx = P4ir.Exec.make_ctx ~env ~runtime:(Runtime.create ()) () in
    let hooks = { P4ir.Parse.on_reject = `Continue; verify_checksum = false; max_steps = 64 } in
    ignore (P4ir.Parse.run ~hooks ctx bits);
    P4ir.Env.snapshot_fields env
  in
  let rules =
    match spec with
    | P4ir.Interp.Forwarded (port, out) ->
        Controller.expect_port port
        :: List.map
             (fun (hd, f, v) ->
               Controller.expect ~name:(hd ^ "." ^ f)
                 (Ast.Bin (Ast.Eq, Ast.Field (hd, f), Ast.Const v)))
             (fields_of out)
    | P4ir.Interp.Dropped _ -> [ Controller.expect ~name:"unexpected-output" (Ast.Const Value.fls) ]
  in
  ok (Controller.clear_test_state ctl);
  ok (Controller.configure_checker ctl rules);
  ok (Controller.configure_generator ctl [ Controller.stream packet ]);
  ok (Controller.start_generator ctl);
  let s = ok (Controller.read_checker ctl) in
  let failing =
    List.filter_map
      (fun rs -> if rs.Wire.rs_failed > 0 then Some rs.Wire.rs_name else None)
      s.Wire.cs_rules
  in
  let port = match s.Wire.cs_captures with c :: _ -> c.Wire.cap_port | [] -> -1 in
  match spec with
  | P4ir.Interp.Forwarded (p, _) when s.Wire.cs_total_seen = 0 ->
      Some (i, Printf.sprintf "forward to port %d" p, "packet never emitted")
  | P4ir.Interp.Forwarded (p, _) when failing <> [] ->
      Some
        ( i,
          Printf.sprintf "forward to port %d with spec field values" p,
          "rule(s) failed: " ^ String.concat ", " failing )
  | P4ir.Interp.Forwarded _ -> None
  | P4ir.Interp.Dropped r when s.Wire.cs_total_seen > 0 ->
      Some (i, Printf.sprintf "drop (%s)" r, Printf.sprintf "forwarded to port %d" port)
  | P4ir.Interp.Dropped _ -> None

let test_check_batch_matches_check_vector () =
  (* the in-device shot must reproduce the management-protocol
     reference's verdicts index-for-index, on a quirky deployment so both
     mismatch and clean verdicts appear in the batch *)
  let vecs =
    Array.of_list
      (List.map P.serialize
         [
           P.udp_ipv4 ~dst:0x0A000001L ();
           P.udp_ipv4 ~dst:0x08080808L ();
           P.arp_request ();
           P.udp_ipv4 ~dst:0x0A010203L ();
         ]
      @ Vectors.fuzz ~seed:11 ~count:12 ())
  in
  let oracle = Programs.parser_guard in
  let ha = Harness.deploy ~quirks:Quirks.default Programs.parser_guard in
  let rta = Usecases.Functional.oracle_runtime oracle in
  let reference = Array.mapi (fun i v -> check_vector oracle rta ha i v) vecs in
  let hb = Harness.deploy ~quirks:Quirks.default Programs.parser_guard in
  let rtb = Usecases.Functional.oracle_runtime oracle in
  let batched =
    Array.map
      (Option.map (fun (m : Usecases.Functional.mismatch) ->
           (m.Usecases.Functional.mm_index, m.mm_expected, m.mm_got)))
      (Usecases.Functional.check_batch oracle rtb hb vecs)
  in
  check_bool "batch contains both verdict kinds" true
    (Array.exists Option.is_some batched && Array.exists Option.is_none batched);
  Alcotest.(check (array (option (triple int string string))))
    "same verdicts as the protocol reference" reference batched

let test_performance_sweep_shape () =
  let h = Harness.deploy Programs.basic_router in
  let probe = P.serialize (P.udp_ipv4 ~dst:0x0A000005L ~payload_bytes:1000 ()) in
  let points =
    Usecases.Performance.sweep ~loads:[ 0.2; 0.8; 1.2 ] ~packets_per_point:500 h ~probe
  in
  check_int "three points" 3 (List.length points);
  (match points with
  | [ low; mid; over ] ->
      check_bool "low load achieved" true
        (low.Usecases.Performance.pt_achieved_gbps
        >= 0.9 *. low.Usecases.Performance.pt_offered_gbps);
      check_bool "mid load achieved" true
        (mid.Usecases.Performance.pt_achieved_gbps
        >= 0.9 *. mid.Usecases.Performance.pt_offered_gbps);
      (* beyond line rate the device saturates: achieved < offered *)
      check_bool "overload saturates" true
        (over.Usecases.Performance.pt_achieved_gbps
        < 0.98 *. over.Usecases.Performance.pt_offered_gbps);
      check_bool "overload latency worse" true
        (over.Usecases.Performance.pt_lat_p99_ns > low.Usecases.Performance.pt_lat_p99_ns)
  | _ -> Alcotest.fail "expected 3 points");
  ()

let test_compiler_check_battery () =
  let detections = Usecases.Compiler_check.battery () in
  (* control (no quirk) must be clean; every seeded quirk must be caught *)
  List.iter
    (fun d ->
      match d.Usecases.Compiler_check.dq_quirk with
      | None ->
          check_bool "control not flagged" false d.Usecases.Compiler_check.dq_detected
      | Some q ->
          check_bool (Quirks.name q ^ " detected") true d.Usecases.Compiler_check.dq_detected)
    detections;
  check_int "six quirks + control" 7 (List.length detections)

let test_architecture_probe () =
  let results = Usecases.Architecture_check.probe () in
  check_int "four limits probed" 4 (List.length results);
  List.iter
    (fun r ->
      check_int
        ("discovered " ^ r.Usecases.Architecture_check.ar_limit)
        r.Usecases.Architecture_check.ar_documented
        r.Usecases.Architecture_check.ar_discovered)
    results

let test_resources_inventory () =
  let rows = Usecases.Resources.inventory () in
  check_int "all programs" (List.length Programs.all) (List.length rows);
  List.iter
    (fun r ->
      check_bool (r.Usecases.Resources.rr_program ^ " uses luts") true
        (r.Usecases.Resources.rr_luts > 0);
      check_bool (r.Usecases.Resources.rr_program ^ " fits") true
        (r.Usecases.Resources.rr_max_util_pct < 100.0))
    rows;
  (* the ACL program is the only TCAM consumer *)
  let acl = List.find (fun r -> r.Usecases.Resources.rr_program = "acl_firewall") rows in
  check_bool "acl uses tcam" true (acl.Usecases.Resources.rr_tcam_bits > 0)

let test_status_monitoring () =
  let h = Harness.deploy Programs.basic_router in
  let background = P.serialize (P.udp_ipv4 ~dst:0x0A000005L ()) in
  let samples = Usecases.Status.monitor ~period_packets:20 ~samples:5 h ~background in
  check_int "five samples" 5 (List.length samples);
  let ins = List.map (fun s -> s.Wire.ss_packets_in) samples in
  check_bool "monotone packet counts" true
    (List.for_all2
       (fun a b -> Int64.compare a b <= 0)
       (List.filteri (fun i _ -> i < 4) ins)
       (List.tl ins));
  Alcotest.(check int64) "100 packets seen" 100L (List.nth ins 4)

let test_comparison_equivalent_specs () =
  let r =
    Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.none
      Programs.basic_router Programs.router_split
  in
  check_bool "router == router_split" true (Usecases.Comparison.equivalent r);
  check_bool "nontrivial probe set" true (r.Usecases.Comparison.cr_compared > 5)

let test_comparison_detects_divergence () =
  let r =
    Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.none
      Programs.basic_router Programs.buggy_router
  in
  check_bool "ttl bug shows up as divergence" true
    (not (Usecases.Comparison.equivalent r))

let test_vectors_cover_paths () =
  let rt = Runtime.create () in
  ok
    (Runtime.install_all Programs.basic_router.Programs.program rt
       Programs.basic_router.Programs.entries);
  let vectors = Vectors.from_paths Programs.basic_router.Programs.program rt in
  check_bool "several distinct vectors" true (List.length vectors >= 4);
  (* vectors must exercise forward, drop and reject outcomes *)
  let outcomes =
    List.map
      (fun bits ->
        match
          (P4ir.Interp.process Programs.basic_router.Programs.program rt
             ~ingress_port:Harness.generator_port bits)
            .P4ir.Interp.result
        with
        | P4ir.Interp.Forwarded _ -> "fwd"
        | P4ir.Interp.Dropped r -> r)
      vectors
  in
  check_bool "forward covered" true (List.mem "fwd" outcomes);
  check_bool "ingress drop covered" true (List.mem "ingress" outcomes);
  check_bool "reject covered" true
    (List.exists (fun o -> String.length o >= 6 && String.sub o 0 6 = "parser") outcomes)

(* check_paths: the per-path symexec-vs-device divergence check. The
   shipped toolchain (reject compiled as accept) must diverge on a
   parser-reject path — the hardened witnesses make the fallthrough
   observable — and the fixed toolchain must agree on every path. *)
let test_check_paths_flags_reject_quirk () =
  let h = Harness.deploy Programs.basic_router in
  let r = Usecases.Functional.check_paths h in
  check_bool "all paths checked" true
    (r.Usecases.Functional.pr_checked
    = List.length r.Usecases.Functional.pr_oracle.Symexec.Testgen.tg_vectors);
  check_bool "quirked toolchain diverges" false (Usecases.Functional.paths_agree r);
  (match Usecases.Functional.first_divergence r with
  | None -> Alcotest.fail "no first divergence reported"
  | Some d ->
      let descr = d.Usecases.Functional.dv_descr in
      let contains sub =
        let n = String.length sub and m = String.length descr in
        let rec go i = i + n <= m && (String.sub descr i n = sub || go (i + 1)) in
        go 0
      in
      check_bool "first diverging path is a parser reject" true (contains "rejected(");
      check_bool "device forwarded the rejected packet" true
        (String.length d.Usecases.Functional.dv_got >= 9
        && String.sub d.Usecases.Functional.dv_got 0 9 = "forwarded"));
  (* the report is jobs-invariant *)
  let render r = Format.asprintf "%a" Usecases.Functional.pp_paths r in
  let h4 = Harness.deploy Programs.basic_router in
  Alcotest.(check string) "jobs=4 report identical" (render r)
    (render (Usecases.Functional.check_paths ~jobs:4 h4));
  (* a faithful toolchain shows no divergence on any path *)
  let hc = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let rc = Usecases.Functional.check_paths hc in
  check_bool "clean toolchain agrees" true (Usecases.Functional.paths_agree rc);
  check_int "nothing skipped on the router" 0 rc.Usecases.Functional.pr_skipped

let () =
  Alcotest.run "netdebug"
    [
      ( "wire",
        [
          Alcotest.test_case "expr roundtrip" `Quick test_wire_expr_roundtrip;
          Alcotest.test_case "host roundtrip" `Quick test_wire_host_roundtrip;
          Alcotest.test_case "dev roundtrip" `Quick test_wire_dev_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "expr depth bound" `Quick test_wire_expr_depth_bound;
          QCheck_alcotest.to_alcotest prop_wire_stream_roundtrip;
        ] );
      ("channel", [ Alcotest.test_case "fifo" `Quick test_channel_fifo ]);
      ( "harness",
        [
          Alcotest.test_case "self check (Figure 1)" `Quick test_harness_self_check;
          Alcotest.test_case "artifacts into a nested directory" `Quick
            test_export_artifacts_nested_dir;
          Alcotest.test_case "generator through pipeline" `Quick
            test_generator_injects_through_pipeline;
          Alcotest.test_case "sweep mutation" `Quick test_generator_sweep_mutation;
          Alcotest.test_case "checksum refresh" `Quick test_generator_checksum_refresh;
          Alcotest.test_case "deliberate bad checksum" `Quick
            test_generator_deliberate_bad_checksum;
          Alcotest.test_case "checker filter and captures" `Quick
            test_checker_filter_and_captures;
          Alcotest.test_case "checker flags malformed output" `Quick
            test_checker_sees_parser_error_of_output;
          Alcotest.test_case "register read over channel" `Quick
            test_register_read_over_channel;
        ] );
      ( "case_study",
        [ Alcotest.test_case "reject bug (Section 4)" `Quick test_case_study_reject_bug_detected ] );
      ( "localize",
        [
          Alcotest.test_case "healthy" `Quick test_localize_healthy;
          Alcotest.test_case "stage faults" `Quick test_localize_stage_faults;
          Alcotest.test_case "broken interface" `Quick test_localize_broken_interface;
          Alcotest.test_case "program drop" `Quick test_localize_program_drop;
        ] );
      ( "usecases",
        [
          Alcotest.test_case "functional clean pass" `Quick test_functional_clean_pass;
          Alcotest.test_case "functional detects reject quirk" `Quick
            test_functional_detects_reject_quirk;
          Alcotest.test_case "functional detects program bug" `Quick
            test_functional_detects_program_bug_with_oracle;
          Alcotest.test_case "check_batch matches check_vector" `Quick
            test_check_batch_matches_check_vector;
          Alcotest.test_case "check_batch restores the rule set" `Quick
            test_check_batch_restores_rules;
          Alcotest.test_case "performance sweep shape" `Slow test_performance_sweep_shape;
          Alcotest.test_case "compiler check battery" `Slow test_compiler_check_battery;
          Alcotest.test_case "architecture probe" `Quick test_architecture_probe;
          Alcotest.test_case "resources inventory" `Quick test_resources_inventory;
          Alcotest.test_case "status monitoring" `Quick test_status_monitoring;
          Alcotest.test_case "comparison equivalent" `Slow test_comparison_equivalent_specs;
          Alcotest.test_case "comparison divergence" `Slow test_comparison_detects_divergence;
          Alcotest.test_case "vectors cover paths" `Quick test_vectors_cover_paths;
          Alcotest.test_case "check_paths flags reject quirk" `Quick
            test_check_paths_flags_reject_quirk;
        ] );
    ]
