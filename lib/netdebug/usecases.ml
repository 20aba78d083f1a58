module Ast = P4ir.Ast
module Value = P4ir.Value
module Env = P4ir.Env
module Exec = P4ir.Exec
module Parse = P4ir.Parse
module Interp = P4ir.Interp
module Runtime = P4ir.Runtime
module Programs = P4ir.Programs
module Dsl = P4ir.Dsl
module Quirks = Sdnet.Quirks
module Testgen = Symexec.Testgen
module Compile = Sdnet.Compile
module Config = Target.Config
module Device = Target.Device
module Pipeline = Target.Pipeline
module Resource = Target.Resource
module Bitstring = Bitutil.Bitstring

let ( let* ) r f =
  match r with Ok v -> f v | Error e -> invalid_arg ("Usecases: " ^ e)

(* parse arbitrary output bits with a program's parser, never dropping *)
let observe_fields program bits =
  let env = Env.create program in
  let ctx = Exec.make_ctx ~env ~runtime:(Runtime.create ()) () in
  ignore (Parse.run ~hooks:Parse.lenient_hooks ctx bits);
  Env.snapshot_fields env

(* ------------------------------------------------------------------ *)
(* Functional testing                                                  *)
(* ------------------------------------------------------------------ *)

module Functional = struct
  type mismatch = {
    mm_index : int;
    mm_packet : Bitstring.t;
    mm_expected : string;
    mm_got : string;
  }

  type report = { fr_tested : int; fr_mismatches : mismatch list }

  let passed r = r.fr_mismatches = []

  (* expected-output rules: egress port plus one equality per header field
     of the specification's output packet *)
  let rules_for_expected program port out_bits =
    Controller.expect_port port
    :: List.map
         (fun (h, f, v) ->
           Controller.expect
             ~name:(Printf.sprintf "%s.%s" h f)
             (Ast.Bin (Ast.Eq, Ast.Field (h, f), Ast.Const v)))
         (observe_fields program out_bits)

  let never_forward_rule =
    Controller.expect ~name:"unexpected-output" (Ast.Const Value.fls)

  (* the spec's expected-output rules for one vector *)
  let rules_for oracle spec =
    match spec with
    | Interp.Forwarded (port, out_bits) ->
        rules_for_expected oracle.Programs.program port out_bits
    | Interp.Dropped _ -> [ never_forward_rule ]

  (* the verdict: the spec expectation against the checker's summary *)
  let verdict_of spec i packet (summary : Wire.checker_summary) =
    let mismatch expected got =
      Some { mm_index = i; mm_packet = packet; mm_expected = expected; mm_got = got }
    in
    match spec with
    | Interp.Forwarded (port, _) ->
        if summary.Wire.cs_total_seen = 0 then
          mismatch (Printf.sprintf "forward to port %d" port) "packet never emitted"
        else begin
          let failing =
            List.filter (fun rs -> rs.Wire.rs_failed > 0) summary.Wire.cs_rules
          in
          if failing <> [] then
            mismatch
              (Printf.sprintf "forward to port %d with spec field values" port)
              (Printf.sprintf "rule(s) failed: %s"
                 (String.concat ", " (List.map (fun rs -> rs.Wire.rs_name) failing)))
          else None
        end
    | Interp.Dropped reason ->
        if summary.Wire.cs_total_seen > 0 then
          let port =
            match summary.Wire.cs_captures with
            | c :: _ -> c.Wire.cap_port
            | [] -> -1
          in
          mismatch
            (Printf.sprintf "drop (%s)" reason)
            (Printf.sprintf "forwarded to port %d" port)
        else None

  (* The one device path of every single-packet check: [rules] armed
     with fresh tallies, then the generator's raw shot. Check taps fire
     synchronously on emission, so the checker's summary is final when
     the disposition comes back — no management-protocol round trip. *)
  let shot (hw : Harness.t) rules packet =
    let chk = Agent.checker hw.Harness.agent in
    Checker.configure chk rules;
    Checker.clear chk;
    Generator.send_raw (Agent.generator hw.Harness.agent) packet

  (* [f k x] for every item, then one quiesce for the batch (DESIGN.md
     §15). A packet's rules judge that packet only: the caller's rule
     set is re-armed on the way out, normally or not, so traffic after
     the batch is not judged against the last packet's expectation. *)
  let batch (hw : Harness.t) f items =
    let chk = Agent.checker hw.Harness.agent in
    let armed = Checker.rules chk in
    Fun.protect
      ~finally:(fun () -> Checker.configure chk armed)
      (fun () ->
        let out = Array.mapi f items in
        Device.quiesce hw.Harness.device;
        out)

  (* one vector: interpret the spec, arm the checker from it, fire the
     shot, read the verdict back *)
  let check_one ?regs oracle oracle_rt (hw : Harness.t) i packet =
    let spec =
      (Interp.process ?regs oracle.Programs.program oracle_rt
         ~ingress_port:Harness.generator_port packet)
        .Interp.result
    in
    ignore (shot hw (rules_for oracle spec) packet);
    verdict_of spec i packet (Checker.summary (Agent.checker hw.Harness.agent))

  let check_batch ?regs ?(base = 0) oracle oracle_rt hw packets =
    batch hw (fun k packet -> check_one ?regs oracle oracle_rt hw (base + k) packet) packets

  let oracle_runtime oracle =
    let rt = Runtime.create () in
    (match Runtime.install_all oracle.Programs.program rt oracle.Programs.entries with
    | Ok () -> ()
    | Error e -> invalid_arg ("Usecases.Functional: " ^ e));
    rt

  (* The sweep: [items] in batches over one harness per worker — worker
     0 drives [h], every other worker a [Harness.replicate] replica the
     coordinator makes before the pool runs (as [Fleet.run] does) — with
     the device's registers zeroed before every item, so each verdict
     depends only on its item and the result is the same at any [jobs].
     [check w hw] is worker [w]'s per-item check on [hw]. Results land
     at their input index; every replica's telemetry folds back into
     [h]'s device in ascending worker order (associative merges: the
     order only buys determinism). *)
  let sweep ~jobs (h : Harness.t) check items =
    let replicas = Array.init jobs (fun w -> if w = 0 then h else Harness.replicate h) in
    let checks = Array.mapi check replicas in
    let n = Array.length items in
    (* a lone worker takes everything as one batch, so its device
       timeline (the spans [trace] exports) is a plain [check_batch]'s *)
    let size = if jobs = 1 then max 1 n else 8 in
    let starts = Array.init ((n + size - 1) / size) (fun c -> c * size) in
    let pieces =
      Par.Pool.with_pool ~jobs (fun pool ->
          Par.Pool.map_chunks pool ~chunk:1
            (fun ~worker _ start ->
              let hw = replicas.(worker) in
              batch hw
                (fun k x ->
                  P4ir.Regstate.reset (Device.registers hw.Harness.device);
                  checks.(worker) (start + k) x)
                (Array.sub items start (min size (n - start))))
            starts)
    in
    for w = 1 to jobs - 1 do
      Telemetry.Registry.merge
        ~into:(Device.metrics h.Harness.device)
        (Device.metrics replicas.(w).Harness.device)
    done;
    Array.concat (Array.to_list pieces)

  let run ?oracle ?vectors ?(fuzz = 32) ?fuzz_seed ?(stateful = false) ?(jobs = 1)
      (h : Harness.t) =
    let oracle = match oracle with Some b -> b | None -> h.Harness.bundle in
    let oracle_rt = oracle_runtime oracle in
    let vectors =
      match vectors with
      | Some v -> v
      | None -> Vectors.from_paths oracle.Programs.program oracle_rt
    in
    let vecs = Array.of_list (vectors @ Vectors.fuzz ?seed:fuzz_seed ~count:fuzz ()) in
    let results =
      if stateful then begin
        (* stateful mode: thread one register store through the oracle and
           start the device's registers from a known (zero) state, so both
           sides see the same packet history — inherently sequential *)
        P4ir.Regstate.reset (Device.registers h.Harness.device);
        check_batch ~regs:(P4ir.Regstate.create oracle.Programs.program) oracle oracle_rt h vecs
      end
      else
        sweep ~jobs:(max 1 jobs) h
          (fun w hw -> check_one oracle (if w = 0 then oracle_rt else oracle_runtime oracle) hw)
          vecs
    in
    {
      fr_tested = Array.length vecs;
      fr_mismatches = List.filter_map Fun.id (Array.to_list results);
    }

  let pp ppf r =
    Format.fprintf ppf "functional: %d vectors, %d mismatch(es)" r.fr_tested
      (List.length r.fr_mismatches);
    List.iteri
      (fun i m ->
        if i < 5 then
          Format.fprintf ppf "@\n  #%d expected %s, got %s" m.mm_index m.mm_expected
            m.mm_got)
      r.fr_mismatches

  (* ---------------------------------------------------------------- *)
  (* Per-path divergence check (symexec oracle vs device)              *)
  (* ---------------------------------------------------------------- *)

  type divergence = {
    dv_path : int;
    dv_descr : string;
    dv_expected : string;
    dv_got : string;
  }

  type path_report = {
    pr_oracle : Testgen.report;
    pr_checked : int;
    pr_skipped : int;  (* state-dependent vectors not used as oracles *)
    pr_divergences : divergence list;
  }

  let paths_agree r = r.pr_divergences = []
  let first_divergence r = match r.pr_divergences with [] -> None | d :: _ -> Some d

  (* one path vector: arm the checker from the *symbolic* expectation
     (never the interpreter), fire the shot, read the verdict *)
  let check_path (hw : Harness.t) (v : Testgen.vector) =
    let rules =
      match v.Testgen.v_expected with
      | Testgen.Forward port -> [ Controller.expect_port port ]
      | Testgen.Drop _ -> [ never_forward_rule ]
    in
    ignore (shot hw rules v.Testgen.v_packet);
    let summary = Checker.summary (Agent.checker hw.Harness.agent) in
    let diverged got =
      Some
        {
          dv_path = v.Testgen.v_path;
          dv_descr = v.Testgen.v_descr;
          dv_expected = Testgen.expected_str v.Testgen.v_expected;
          dv_got = got;
        }
    in
    let forwarded () =
      let port =
        match summary.Wire.cs_captures with c :: _ -> c.Wire.cap_port | [] -> -1
      in
      diverged (Printf.sprintf "forwarded to port %d" port)
    in
    match v.Testgen.v_expected with
    | Testgen.Forward _ ->
        if summary.Wire.cs_total_seen = 0 then diverged "packet never emitted"
        else if List.exists (fun rs -> rs.Wire.rs_failed > 0) summary.Wire.cs_rules then
          forwarded ()
        else None
    | Testgen.Drop _ -> if summary.Wire.cs_total_seen = 0 then None else forwarded ()

  let check_paths ?seed ?max_paths ?(jobs = 1) (h : Harness.t) =
    let oracle = h.Harness.bundle in
    let oracle_rt = oracle_runtime oracle in
    let jobs = max 1 jobs in
    let report =
      Testgen.generate ?seed ?max_paths ~jobs ~ingress_port:Harness.generator_port
        oracle.Programs.program oracle_rt
    in
    let usable, skipped =
      List.partition (fun v -> not v.Testgen.v_state_dependent) report.Testgen.tg_vectors
    in
    let vecs = Array.of_list usable in
    let results = sweep ~jobs h (fun _ hw _ v -> check_path hw v) vecs in
    (* results keep array order = ascending path id, so the head of the
       divergence list is always the first diverging path *)
    let divergences = List.filter_map Fun.id (Array.to_list results) in
    {
      pr_oracle = report;
      pr_checked = Array.length vecs;
      pr_skipped = List.length skipped;
      pr_divergences = divergences;
    }

  let pp_paths ppf r =
    let s = r.pr_oracle.Testgen.tg_stats in
    Format.fprintf ppf "path check: %s@\n" r.pr_oracle.Testgen.tg_program;
    Format.fprintf ppf "  paths: %d enumerated, %d solved, %d checked, %d skipped@\n"
      s.Testgen.tg_paths s.Testgen.tg_solved r.pr_checked r.pr_skipped;
    Format.fprintf ppf "  divergences: %d" (List.length r.pr_divergences);
    List.iter
      (fun d ->
        Format.fprintf ppf "@\n  path %d diverged: expected %s, got %s@\n    %s"
          d.dv_path d.dv_expected d.dv_got d.dv_descr)
      r.pr_divergences
end

(* ------------------------------------------------------------------ *)
(* Performance testing                                                 *)
(* ------------------------------------------------------------------ *)

module Performance = struct
  type point = {
    pt_offered_gbps : float;
    pt_achieved_gbps : float;
    pt_achieved_mpps : float;
    pt_lat_p50_ns : float;
    pt_lat_p99_ns : float;
    pt_sent : int;
    pt_received : int;
  }

  let default_loads = [ 0.1; 0.25; 0.5; 0.75; 0.9; 1.0; 1.1; 1.25 ]

  let sweep ?(loads = default_loads) ?(packets_per_point = 2000) (h : Harness.t) ~probe =
    let ctl = h.Harness.controller in
    let cfg = Device.config h.Harness.device in
    let line_gbps = Config.line_rate_gbps cfg in
    let bits_per_packet = float_of_int (Bitstring.byte_length probe * 8) in
    List.map
      (fun load ->
        let offered_gbps = load *. line_gbps in
        let interval_ns = bits_per_packet /. offered_gbps in
        let* () = Controller.clear_test_state ctl in
        let* () = Controller.configure_checker ctl [] in
        let* () =
          Controller.configure_generator ctl
            [ Controller.stream ~count:packets_per_point ~interval_ns probe ]
        in
        let* () = Controller.start_generator ctl in
        let* summary = Controller.read_checker ctl in
        {
          pt_offered_gbps = offered_gbps;
          pt_achieved_gbps = summary.Wire.cs_gbps;
          pt_achieved_mpps = summary.Wire.cs_pps /. 1e6;
          pt_lat_p50_ns = summary.Wire.cs_lat_p50_ns;
          pt_lat_p99_ns = summary.Wire.cs_lat_p99_ns;
          pt_sent = packets_per_point;
          pt_received = summary.Wire.cs_total_seen;
        })
      loads
end

(* ------------------------------------------------------------------ *)
(* Compiler check                                                      *)
(* ------------------------------------------------------------------ *)

module Compiler_check = struct
  type detection = {
    dq_quirk : Quirks.quirk option;
    dq_program : string;
    dq_detected : bool;
    dq_evidence : string;
  }

  (* a program whose output depends on a wide shift: a 5-bit shifter
     computes << (40 mod 32) = << 8 instead of << 40 *)
  let shifter =
    {
      Programs.reflector with
      Programs.program =
        {
          Programs.reflector.Programs.program with
          Ast.p_name = "shifter";
          p_ingress =
            [
              Dsl.set_field "eth" "dst"
                (Ast.Bin (Ast.Shl, Dsl.fld "eth" "dst", Dsl.const ~width:8 40));
              Dsl.set_std Ast.Egress_spec (Dsl.const ~width:9 0);
            ];
        };
    }

  (* each quirk is probed with a program whose behaviour it perturbs *)
  let sensitive_program (q : Quirks.quirk) =
    match q with
    | Quirks.Reject_unimplemented -> Programs.parser_guard
    | Quirks.Ternary_as_exact -> Programs.acl_firewall
    | Quirks.Shift_width_truncated _ -> shifter
    | Quirks.Egress_drop_ignored ->
        {
          Programs.reflector with
          Programs.program =
            {
              Programs.reflector.Programs.program with
              Ast.p_name = "egress_dropper";
              p_ingress = [ Dsl.set_std Ast.Egress_spec (Dsl.const ~width:9 0) ];
              p_egress =
                [
                  Dsl.when_
                    Dsl.(fld "eth" "ethertype" ==: const ~width:16 0x0800)
                    [ Ast.MarkToDrop ];
                ];
            };
        }
    | Quirks.Select_cases_truncated _ -> Programs.mpls_tunnel
    | Quirks.Checksum_not_handled -> Programs.basic_router

  let detect quirks bundle =
    let h = Harness.deploy ~quirks bundle in
    let base = Functional.run ~fuzz:24 h in
    (* checksum handling needs a deliberately corrupted probe *)
    let extra =
      if List.mem Quirks.Checksum_not_handled quirks || quirks = [] then
        let corrupted =
          Packet.serialize
            (Packet.map_ipv4
               (fun ip -> { ip with Packet.Ipv4.checksum = 0xBADL })
               (Packet.udp_ipv4 ~dst:0x0A000001L ()))
        in
        Functional.run ~vectors:[ corrupted ] ~fuzz:0 h
      else { Functional.fr_tested = 0; fr_mismatches = [] }
    in
    let mismatches = base.Functional.fr_mismatches @ extra.Functional.fr_mismatches in
    ( mismatches <> [],
      match mismatches with
      | [] -> Printf.sprintf "%d vectors, all match the specification"
                (base.Functional.fr_tested + extra.Functional.fr_tested)
      | m :: _ ->
          Printf.sprintf "%d/%d vectors diverge (first: expected %s, got %s)"
            (List.length mismatches)
            (base.Functional.fr_tested + extra.Functional.fr_tested)
            m.Functional.mm_expected m.Functional.mm_got )

  let battery () =
    let control =
      let bundle = Programs.basic_router in
      let detected, evidence = detect Quirks.none bundle in
      {
        dq_quirk = None;
        dq_program = bundle.Programs.program.Ast.p_name;
        dq_detected = detected;
        dq_evidence = evidence;
      }
    in
    control
    :: List.map
         (fun q ->
           let bundle = sensitive_program q in
           let detected, evidence = detect [ q ] bundle in
           {
             dq_quirk = Some q;
             dq_program = bundle.Programs.program.Ast.p_name;
             dq_detected = detected;
             dq_evidence = evidence;
           })
         Quirks.all
end

(* ------------------------------------------------------------------ *)
(* Architecture check                                                  *)
(* ------------------------------------------------------------------ *)

module Architecture_check = struct
  type probe_result = { ar_limit : string; ar_discovered : int; ar_documented : int }

  let base = Programs.reflector.Programs.program

  let chain_parser n =
    List.init n (fun i ->
        let name = if i = 0 then "start" else Printf.sprintf "s%d" i in
        let extracts = if i = 0 then [ "eth" ] else [] in
        if i = n - 1 then Dsl.state name ~extracts Dsl.accept
        else Dsl.state name ~extracts (Dsl.goto (Printf.sprintf "s%d" (i + 1))))

  let with_parser n = { base with Ast.p_name = "probe_parser"; p_parser = chain_parser n }

  let with_tables n =
    {
      base with
      Ast.p_name = "probe_tables";
      p_actions = [ Dsl.action "noop" [] [] ];
      p_tables =
        List.init n (fun i ->
            Dsl.table ~size:4
              (Printf.sprintf "t%d" i)
              [ (Dsl.fld "eth" "dst", Ast.Exact) ]
              [ "noop" ] ~default:"noop" ());
      p_ingress = List.init n (fun i -> Ast.Apply (Printf.sprintf "t%d" i));
    }

  let with_entries n =
    {
      base with
      Ast.p_name = "probe_entries";
      p_actions = [ Dsl.action "noop" [] [] ];
      p_tables =
        [
          Dsl.table ~size:n "big"
            [ (Dsl.fld "eth" "dst", Ast.Exact) ]
            [ "noop" ] ~default:"noop" ();
        ];
      p_ingress = [ Ast.Apply "big" ];
    }

  let with_key_bits n =
    (* n must be assembled from 48-bit MAC fields plus a remainder slice *)
    let full = n / 48 in
    let rem = n mod 48 in
    let keys =
      List.init full (fun i ->
          ((if i mod 2 = 0 then Dsl.fld "eth" "dst" else Dsl.fld "eth" "src"), Ast.Exact))
      @ (if rem > 0 then [ (Ast.Slice (Dsl.fld "eth" "dst", rem - 1, 0), Ast.Exact) ] else [])
    in
    {
      base with
      Ast.p_name = "probe_keys";
      p_actions = [ Dsl.action "noop" [] [] ];
      p_tables = [ Dsl.table ~size:4 "wide" keys [ "noop" ] ~default:"noop" () ];
      p_ingress = [ Ast.Apply "wide" ];
    }

  (* largest n in [1, hi] for which [accepts n]; assumes monotonicity *)
  let search accepts hi =
    let lo = ref 0 and hi = ref hi in
    if accepts 1 then begin
      let l = ref 1 in
      while !l * 2 <= !hi && accepts (!l * 2) do
        l := !l * 2
      done;
      lo := !l;
      hi := min !hi (!l * 2);
      while !lo + 1 < !hi do
        let mid = (!lo + !hi) / 2 in
        if accepts mid then lo := mid else hi := mid
      done;
      !lo
    end
    else 0

  let probe () =
    let config = Config.netfpga_sume in
    let compiles program =
      match Compile.compile ~quirks:Quirks.none ~config program with
      | Ok _ -> true
      | Error _ -> false
    in
    [
      {
        ar_limit = "parser states";
        ar_discovered = search (fun n -> compiles (with_parser n)) (4 * config.Config.max_parser_states);
        ar_documented = config.Config.max_parser_states;
      };
      {
        ar_limit = "tables";
        ar_discovered = search (fun n -> compiles (with_tables n)) (4 * config.Config.max_tables);
        ar_documented = config.Config.max_tables;
      };
      {
        ar_limit = "entries per table";
        ar_discovered =
          search (fun n -> compiles (with_entries n)) (4 * config.Config.max_table_entries);
        ar_documented = config.Config.max_table_entries;
      };
      {
        ar_limit = "match key bits";
        ar_discovered = search (fun n -> compiles (with_key_bits n)) (4 * config.Config.max_key_bits);
        ar_documented = config.Config.max_key_bits;
      };
    ]
end

(* ------------------------------------------------------------------ *)
(* Resources quantification                                            *)
(* ------------------------------------------------------------------ *)

module Resources = struct
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

  let inventory () =
    let config = Config.netfpga_sume in
    List.filter_map
      (fun (b : Programs.bundle) ->
        match Compile.compile ~config b.Programs.program with
        | Error _ -> None
        | Ok report ->
            let p = report.Compile.pipeline in
            let r = p.Pipeline.resources in
            let util = Resource.utilization r config in
            Some
              {
                rr_program = b.Programs.program.Ast.p_name;
                rr_stages = List.length p.Pipeline.stages;
                rr_latency_cycles = Pipeline.total_latency_cycles p;
                rr_luts = r.Resource.luts;
                rr_ffs = r.Resource.ffs;
                rr_brams = r.Resource.brams;
                rr_tcam_bits = r.Resource.tcam_bits;
                rr_max_util_pct = List.fold_left (fun acc (_, p) -> max acc p) 0.0 util;
              })
      Programs.all
end

(* ------------------------------------------------------------------ *)
(* Status monitoring                                                   *)
(* ------------------------------------------------------------------ *)

module Status = struct
  let monitor ?(period_packets = 50) ?(samples = 10) ?(load = 0.5) (h : Harness.t)
      ~background =
    let cfg = Device.config h.Harness.device in
    (* live traffic paced at [load] x line rate, relative to the device's
       current clock — on a reused harness an absolute-zero schedule
       would land every packet in the past and tail-drop the RX ring *)
    let wire_bits = float_of_int (Bitstring.byte_length background * 8) in
    let interval_ns = wire_bits /. (load *. Config.line_rate_gbps cfg) in
    (* drain any backlog a previous use-case left queued: the paced
       schedule models an otherwise-idle device, and a pre-existing
       burst would tail-drop against the monitoring traffic *)
    Device.quiesce h.Harness.device;
    let t0 = Device.now_ns h.Harness.device in
    let out = ref [] in
    let n = ref 0 in
    for s = 0 to samples - 1 do
      for i = 0 to period_packets - 1 do
        let port = ((s * period_packets) + i) mod cfg.Config.ports in
        let at_ns = t0 +. (float_of_int !n *. interval_ns) in
        incr n;
        ignore
          (Device.inject h.Harness.device ~source:(Device.External port) ~at_ns background)
      done;
      let* snapshot = Controller.read_status h.Harness.controller in
      out := snapshot :: !out
    done;
    List.rev !out
end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

module Comparison = struct
  type divergence = {
    dv_index : int;
    dv_probe : Bitstring.t;
    dv_a : string;
    dv_b : string;
  }

  type report = { cr_compared : int; cr_divergences : divergence list }

  let equivalent r = r.cr_divergences = []

  (* a probe's fate: the port and bytes its shot was emitted with *)
  let outcome_of (h : Harness.t) _ probe =
    match Functional.shot h [] probe with
    | Device.Emitted o ->
        Printf.sprintf "port %d, %s" o.Device.o_port (Bitstring.to_hex o.Device.o_bits)
    | Device.Dropped_pipeline _ | Device.Dropped_queue | Device.Lost_in_stage _ -> "drop"

  let run ?(quirks_a = Quirks.default) ?(quirks_b = Quirks.default) ?probes bundle_a
      bundle_b =
    let ha = Harness.deploy ~quirks:quirks_a bundle_a in
    let hb = Harness.deploy ~quirks:quirks_b bundle_b in
    let probes =
      match probes with
      | Some p -> p
      | None ->
          let rt = Runtime.create () in
          (match
             Runtime.install_all bundle_a.Programs.program rt bundle_a.Programs.entries
           with
          | Ok () -> ()
          | Error e -> invalid_arg ("Usecases.Comparison: " ^ e));
          Vectors.from_paths bundle_a.Programs.program rt @ Vectors.fuzz ~count:16 ()
    in
    let probes = Array.of_list probes in
    let outcomes h = Functional.batch h (outcome_of h) probes in
    let a = outcomes ha and b = outcomes hb in
    let divergences = ref [] in
    Array.iteri
      (fun i probe ->
        if not (String.equal a.(i) b.(i)) then
          divergences :=
            { dv_index = i; dv_probe = probe; dv_a = a.(i); dv_b = b.(i) } :: !divergences)
      probes;
    { cr_compared = Array.length probes; cr_divergences = List.rev !divergences }
end
