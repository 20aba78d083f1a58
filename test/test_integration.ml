(* Cross-cutting integration scenarios: the full workflow (verify on the
   spec, deploy, validate against the device, localize), a program x quirk
   sensitivity matrix, and a whole-library verification regression. *)

module Ast = P4ir.Ast
module Runtime = P4ir.Runtime
module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Device = Target.Device
module Fault = Target.Fault
module Check = Symexec.Check
module Harness = Netdebug.Harness
module Usecases = Netdebug.Usecases
module Localize = Netdebug.Localize
module P = Packet

let check_bool = Alcotest.(check bool)

let deploy_rt (b : Programs.bundle) =
  let rt = Runtime.create () in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  rt

(* ---------------- program x quirk sensitivity matrix ----------------

   Functional validation of program P compiled with quirk Q must flag a
   divergence exactly when Q perturbs behaviour P actually exercises. *)

let sensitivity_cases =
  [
    (* program, quirk, should functional testing detect it? *)
    (Programs.parser_guard, Quirks.Reject_unimplemented, true);
    (Programs.l2_switch, Quirks.Reject_unimplemented, false)
    (* l2_switch's parser never rejects: the quirk is invisible *);
    (Programs.acl_firewall, Quirks.Ternary_as_exact, true);
    (Programs.basic_router, Quirks.Ternary_as_exact, false)
    (* no ternary keys anywhere *);
    (Programs.l2_switch, Quirks.Checksum_not_handled, false)
    (* no IPv4 handling at all *);
    (Programs.basic_router, Quirks.Egress_drop_ignored, false)
    (* drops only in ingress *);
    (Programs.mpls_tunnel, Quirks.Select_cases_truncated 1, true);
    (Programs.basic_router, Quirks.Select_cases_truncated 1, false)
    (* both selects have exactly one case *);
  ]

let test_quirk_sensitivity_matrix () =
  List.iter
    (fun ((b : Programs.bundle), quirk, expected) ->
      let h = Harness.deploy ~quirks:[ quirk ] b in
      let r = Usecases.Functional.run ~fuzz:16 h in
      let detected = not (Usecases.Functional.passed r) in
      check_bool
        (Printf.sprintf "%s under %s" b.Programs.program.Ast.p_name (Quirks.name quirk))
        expected detected)
    sensitivity_cases

(* ---------------- the full developer workflow ---------------- *)

let test_full_workflow_on_textual_program () =
  (* 1. the developer writes P4 (the file shipped in examples/) *)
  let bundle =
    match P4front.Front.parse_file "router.p4" with
    | Ok b -> b
    | Error e -> Alcotest.failf "parse: %a" P4front.Front.pp_error e
  in
  (* 2. formal verification on the spec: all green *)
  let rt = deploy_rt bundle in
  let findings = Check.run_all bundle.Programs.program rt in
  check_bool "spec verifies" true
    (List.for_all (fun f -> f.Check.f_verdict <> Check.Violated) findings);
  (* 3. deploy on the shipped (buggy) toolchain. For this router most
     rejected traffic dies in ingress anyway (no observable change), but a
     corrupted-checksum packet to a routed prefix must be dropped per the
     spec — under the reject quirk it sails through. NetDebug flags it. *)
  let h = Harness.deploy ~quirks:Quirks.default bundle in
  let corrupted =
    P.serialize
      (P.map_ipv4
         (fun ip -> { ip with P.Ipv4.checksum = 0xBADL })
         (P.udp_ipv4 ~dst:0x0A000005L ()))
  in
  let r = Usecases.Functional.run ~vectors:[ corrupted ] ~fuzz:8 h in
  check_bool "device diverges under the shipped toolchain" true
    (not (Usecases.Functional.passed r));
  (* 4. fixed toolchain: clean, same vectors *)
  let h = Harness.deploy ~quirks:Quirks.none bundle in
  let r = Usecases.Functional.run ~vectors:[ corrupted ] ~fuzz:8 h in
  check_bool "device clean under the fixed toolchain" true
    (Usecases.Functional.passed r);
  (* 5. a hardware fault appears in the field: localize it *)
  Device.inject_fault h.Harness.device ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
  match fst (Localize.locate h ~probe:(P.serialize (P.udp_ipv4 ~dst:0x0A000005L ()))) with
  | Localize.Lost_in "ma:ipv4_lpm" -> ()
  | v -> Alcotest.failf "localization said: %s" (Localize.verdict_to_string v)

(* ---------------- library-wide verification regression ----------------

   For every program in the library, run the full property battery and
   compare against the expected verdict set. Violations must be exactly
   the by-design ones. *)

let expected_violations = function
  | "buggy_router" -> [ "forwarded IPv4 packets have ttl_out = ttl_in - 1" ]
  | "parser_guard" ->
      (* ARP punts are forwarded without an IPv4 header (by design), and
         drop_packet is declared on the LPM table but unused: the default
         route forwards everything *)
      [ "no forward without valid ipv4"; "table ipv4_lpm: action drop_packet reachable" ]
  | "mpls_tunnel" ->
      (* MPLS transit swaps decrement the LABEL ttl, not the inner IPv4
         ttl: the generic router property legitimately does not apply *)
      [ "forwarded IPv4 packets have ttl_out = ttl_in - 1" ]
  | "router_split" ->
      (* with the standard entries every LPM hit resolves to an installed
         next-hop, so the nexthop table's default can never fire: a true
         dead-action finding *)
      [ "table nexthop: action drop_packet reachable" ]
  | _ -> []

let test_library_verification_regression () =
  List.iter
    (fun (b : Programs.bundle) ->
      let rt = deploy_rt b in
      let findings = Check.run_all b.Programs.program rt in
      let violated =
        List.filter_map
          (fun f ->
            if f.Check.f_verdict = Check.Violated then Some f.Check.f_property else None)
          findings
        |> List.sort String.compare
      in
      let expected =
        List.sort String.compare (expected_violations b.Programs.program.Ast.p_name)
      in
      Alcotest.(check (list string))
        (b.Programs.program.Ast.p_name ^ " violations")
        expected violated)
    Programs.all

(* ---------------- every clean program passes on a faithful device ------ *)

let test_library_functional_regression () =
  List.iter
    (fun (b : Programs.bundle) ->
      let h = Harness.deploy ~quirks:Quirks.none b in
      (* stateful programs get the threaded-register oracle *)
      let stateful = b.Programs.program.Ast.p_registers <> [] in
      let r = Usecases.Functional.run ~fuzz:8 ~stateful h in
      check_bool
        (b.Programs.program.Ast.p_name ^ " matches its own spec on faithful hardware")
        true (Usecases.Functional.passed r))
    Programs.all

(* ---------------- the device receives what the spec judged ----------------

   basic_router with its deparser reversed is a legal program whose
   deparser does not replay the parse: re-rendering a test packet through
   it changes the packet. Every validator must inject exactly the packet
   the specification judged, so on a faithful toolchain each one is
   clean. *)

let reversed_router =
  let b = Programs.basic_router in
  let p = b.Programs.program in
  { b with Programs.program = { p with Ast.p_deparser = List.rev p.Ast.p_deparser } }

let test_reversed_deparser_is_clean () =
  let deploy () = Harness.deploy ~quirks:Quirks.none reversed_router in
  let r = Usecases.Functional.run (deploy ()) in
  Alcotest.(check int) "functional mismatches" 0 (List.length r.Usecases.Functional.fr_mismatches);
  let pr = Usecases.Functional.check_paths ~seed:1 (deploy ()) in
  Alcotest.(check int)
    "path divergences" 0
    (List.length pr.Usecases.Functional.pr_divergences);
  let c = Fuzz.Campaign.run ~quirks:Quirks.none ~budget:2000 ~seed:1 reversed_router in
  Alcotest.(check int) "fuzz divergences" 0 (List.length c.Fuzz.Campaign.rp_divergences);
  match fst (Localize.locate (deploy ()) ~probe:(P.serialize (P.udp_ipv4 ~dst:0x0A000005L ()))) with
  | Localize.Healthy -> ()
  | v -> Alcotest.failf "localization said: %s" (Localize.verdict_to_string v)

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "quirk sensitivity matrix" `Slow test_quirk_sensitivity_matrix;
          Alcotest.test_case "full workflow (textual program)" `Quick
            test_full_workflow_on_textual_program;
          Alcotest.test_case "library verification regression" `Slow
            test_library_verification_regression;
          Alcotest.test_case "library functional regression" `Slow
            test_library_functional_regression;
          Alcotest.test_case "reversed deparser is clean" `Quick test_reversed_deparser_is_clean;
        ] );
    ]
