(* netdebug — command-line front end.

   Subcommands:
     list                    the program library
     export PROGRAM          re-loadable .p4 source (round-trips exactly)
     compile PROGRAM         toolchain report (stages, resources, quirks)
     verify PROGRAM          formal verification battery on the spec
     validate PROGRAM        NetDebug functional validation on the device
     localize PROGRAM        inject a fault and localize it
     journey PROGRAM         one packet's span tree, stage by stage
     trace PROGRAM           run validation traffic, export per-packet spans
     metrics PROGRAM         run validation traffic, print Prometheus metrics
     testgen PROGRAM         path-covering test vectors from symbolic execution,
                             optionally checked against the deployed device
     soak PROGRAM            heavy background traffic + concurrent validation,
                             exit-code gated on the rolling health verdict
     serve PROGRAM           soak while serving /metrics and /health over HTTP
     monitor PROGRAM         periodic status snapshots judged by health rules
     net                     deploy a whole topology and validate it end to end
     usecases                run the seven use-cases and summarize
*)

module Ast = P4ir.Ast
module Programs = P4ir.Programs
module Runtime = P4ir.Runtime
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Config = Target.Config
module Device = Target.Device
module Fault = Target.Fault
module Harness = Netdebug.Harness
module Usecases = Netdebug.Usecases
module Localize = Netdebug.Localize
module Fleet = Net.Fleet
open Cmdliner

let find_bundle name =
  if Filename.check_suffix name ".p4" then
    match P4front.Front.parse_file name with
    | Ok b -> Ok b
    | Error e -> Error (Format.asprintf "%s: %a" name P4front.Front.pp_error e)
  else
    match Programs.find name with
    | Some b -> Ok b
    | None ->
        Error
          (Printf.sprintf "unknown program %s (try a .p4 file, or one of: %s)" name
             (String.concat ", "
                (List.map (fun b -> b.Programs.program.Ast.p_name) Programs.all)))

let program_arg =
  let doc =
    "Name of a program from the library (see $(b,netdebug list)) or a path to a \
     $(b,.p4) source file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

(* Shared cmdliner terms. Quirk selection, the fuzz-vector count and the
   fuzz PRNG seed appear on several subcommands — defined once here. *)
module Common_args = struct
  let quirk_names = List.map (fun q -> (Quirks.name q, q)) Quirks.all

  (* whole-set quirk selection: none | default | all | name,name,... *)
  let quirk_set =
    let parse = function
      | "none" -> Ok Quirks.none
      | "default" -> Ok Quirks.default
      | "all" -> Ok Quirks.all
      | s ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | n :: rest -> (
                match List.assoc_opt (String.trim n) quirk_names with
                | Some q -> go (q :: acc) rest
                | None ->
                    Error
                      (`Msg
                        (Printf.sprintf "unknown quirk %S (try: none, default, all, %s)" n
                           (String.concat ", " (List.map fst quirk_names)))))
          in
          go [] (String.split_on_char ',' s)
    in
    Arg.conv (parse, Quirks.pp)

  let quirks =
    let doc =
      Printf.sprintf
        "Toolchain quirk set to compile with: $(b,none) (a faithful, fixed compiler), \
         $(b,default) (the shipped toolchain: %s), $(b,all), or a comma-separated list \
         of quirk names (%s)."
        (String.concat ", " (List.map Quirks.name Quirks.default))
        (String.concat ", " (List.map fst quirk_names))
    in
    Arg.(value & opt quirk_set Quirks.default & info [ "quirks" ] ~docv:"SPEC" ~doc)

  (* an integer in [\[lo, hi\]]: anything else is a usage error naming
     the flag or environment variable it came from *)
  let int_between lo hi what =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= lo && n <= hi -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    in
    Arg.conv (parse, Format.pp_print_int)

  let int_at_least lo what = int_between lo max_int what

  let positive_int = int_at_least 1 "a positive integer"

  (* a finite number above zero: rates, windows and loads *)
  let positive_float =
    let parse s =
      match float_of_string_opt s with
      | Some x when x > 0. && Float.is_finite x -> Ok x
      | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive number" s))
    in
    Arg.conv (parse, Format.pp_print_float)

  let fuzz =
    Arg.(
      value & opt positive_int 32 & info [ "fuzz" ] ~docv:"N" ~doc:"Extra fuzz vectors.")

  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed for the fuzz vectors (default: the built-in seed, 77).")

  let jobs =
    let env = Cmd.Env.info "NETDEBUG_JOBS" ~doc:"Default for $(b,--jobs)." in
    Arg.(
      value & opt positive_int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~env
          ~doc:
            "Worker domains for the parallel execution engine. Validation sweeps \
             shard their vectors over $(docv) device replicas; fuzz campaigns run \
             their shards on $(docv) domains. Reports are identical for every \
             value — parallelism never changes results, only wall-clock time.")
end

let target_arg =
  let doc = "Target platform: sume or small." in
  Arg.(
    value
    & opt (enum [ ("sume", Config.netfpga_sume); ("small", Config.small_target) ])
        Config.netfpga_sume
    & info [ "target" ] ~docv:"TARGET" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1

(* Create an optional artifact directory, missing parents included, before
   the run that fills it: a bad path then fails at once, not at the end. *)
let make_artifact_dir = Option.iter (fun dir -> or_die (Telemetry.Export.mkdir_p dir))

(* A drop fault at a named stage of the harness's device; a stage the
   pipeline lacks is an error naming the stages it has. *)
let inject_drop_fault (h : Harness.t) stage =
  let stages = Target.Pipeline.stage_names (Device.pipeline h.Harness.device) in
  if not (List.mem stage stages) then
    or_die
      (Error
         (Printf.sprintf "%s has no stage %S (stages: %s)"
            h.Harness.bundle.Programs.program.Ast.p_name stage
            (String.concat ", " stages)));
  Device.inject_fault h.Harness.device ~stage Fault.Drop_at_stage

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    let t = Stats.Texttable.create [ "program"; "description" ] in
    List.iter
      (fun b ->
        Stats.Texttable.add_row t
          [ b.Programs.program.Ast.p_name; b.Programs.description ])
      Programs.all;
    print_string (Stats.Texttable.render t)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the data-plane program library")
    Term.(const run $ const ())

(* ---------------- export ---------------- *)

let export_cmd =
  let run name =
    let b = or_die (find_bundle name) in
    print_string (P4front.Print.bundle_to_source b)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Print a program (and its entries) as .p4 source that $(b,netdebug) can \
          load back")
    Term.(const run $ program_arg)

(* ---------------- compile ---------------- *)

let compile_cmd =
  let run name quirks config =
    let b = or_die (find_bundle name) in
    match Compile.compile ~quirks ~config b.Programs.program with
    | Ok report -> Format.printf "%a@." Compile.pp_report report
    | Error errs ->
        List.iter (fun e -> Format.eprintf "error: %a@." Compile.pp_error e) errs;
        exit 1
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a program and report stages/resources")
    Term.(
const run $ program_arg $ Common_args.quirks $ target_arg)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run name =
    let b = or_die (find_bundle name) in
    let rt = Runtime.create () in
    or_die (Runtime.install_all b.Programs.program rt b.Programs.entries);
    let findings = Symexec.Check.run_all b.Programs.program rt in
    List.iter (fun f -> Format.printf "%a@." Symexec.Check.pp_finding f) findings;
    let violated =
      List.filter (fun f -> f.Symexec.Check.f_verdict = Symexec.Check.Violated) findings
    in
    Format.printf "@.%d properties, %d violated@." (List.length findings)
      (List.length violated);
    if violated <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the software formal-verification battery on the specification")
    Term.(const run $ program_arg)

(* span tree printer shared by journey/trace: indent children under their
   parent; orphans (parent evicted from the ring) print as roots *)
let print_span_tree ppf spans =
  let module Span = Telemetry.Span in
  let present = Hashtbl.create 16 in
  List.iter (fun sp -> Hashtbl.replace present sp.Span.sp_id ()) spans;
  let rec pp indent sp =
    Format.fprintf ppf "%s%-20s %10.1f .. %-10.1f%s%s%s@." indent sp.Span.sp_name
      sp.Span.sp_start_ns sp.Span.sp_end_ns
      (match sp.Span.sp_note with Some n -> " (" ^ n ^ ")" | None -> "")
      (if sp.Span.sp_drop then " [drop]" else "")
      (if sp.Span.sp_fault then " [fault]" else "");
    List.iter
      (fun c -> if c.Span.sp_parent = sp.Span.sp_id && c.Span.sp_id <> sp.Span.sp_id then
          pp (indent ^ "  ") c)
      spans
  in
  List.iter
    (fun sp ->
      if sp.Span.sp_parent < 0 || not (Hashtbl.mem present sp.Span.sp_parent) then
        pp "  " sp)
    spans

(* ---------------- validate ---------------- *)

let validate_cmd =
  let run name quirks fuzz fuzz_seed jobs pcap_out telemetry_dir =
    let b = or_die (find_bundle name) in
    make_artifact_dir telemetry_dir;
    Format.printf "toolchain quirks: %a@." Quirks.pp quirks;
    (* a real clock, so table/<name>/update_ns telemetry carries actual
       control-plane update latencies in the exported artifacts *)
    let update_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9) in
    let h = Harness.deploy ~quirks ~update_clock b in
    (match Harness.self_check h with
    | Ok facts -> List.iter (fun f -> Format.printf "[ok] %s@." f) facts
    | Error e -> or_die (Error e));
    let report = Usecases.Functional.run ~fuzz ?fuzz_seed ~jobs h in
    Format.printf "@.%a@." Usecases.Functional.pp report;
    (match pcap_out with
    | Some path ->
        let records =
          List.map
            (fun m ->
              {
                Packet.Pcap.ts_ns = 0.0;
                data = Bitutil.Bitstring.to_string m.Usecases.Functional.mm_packet;
              })
            report.Usecases.Functional.fr_mismatches
        in
        Packet.Pcap.write_file path records;
        Format.printf "wrote %d diverging packet(s) to %s@." (List.length records) path
    | None -> ());
    Format.printf "%s@." (Harness.trace_health h);
    (match telemetry_dir with
    | Some dir ->
        List.iter
          (fun p -> Format.printf "wrote %s@." p)
          (Harness.export_artifacts h ~dir)
    | None -> ());
    if not (Usecases.Functional.passed report) then exit 1
  in
  let pcap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pcap" ] ~docv:"FILE"
          ~doc:"Write the packets that exposed divergences to a pcap capture.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"DIR"
          ~doc:
            "Export telemetry artifacts (trace.json, spans.jsonl, metrics.prom) into \
             this directory after the run.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Deploy on the simulated device and validate against the specification")
    Term.(
      const run $ program_arg $ Common_args.quirks $ Common_args.fuzz
      $ Common_args.seed $ Common_args.jobs $ pcap_arg $ telemetry_arg)

(* ---------------- localize ---------------- *)

let localize_cmd =
  let run name stage =
    let b = or_die (find_bundle name) in
    let h = Harness.deploy ~quirks:Quirks.none b in
    Option.iter (inject_drop_fault h) stage;
    let probe =
      match b.Programs.entries with
      | _ :: _ -> Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ())
      | [] -> Packet.serialize (Packet.udp_ipv4 ())
    in
    let verdict, evidence = Localize.locate h ~probe in
    Format.printf "verdict: %s@." (Localize.verdict_to_string verdict);
    List.iter
      (fun (stage, delta) -> Format.printf "  %-16s %Ld@." stage delta)
      evidence.Localize.e_deltas;
    Format.printf "  %-16s %d@." "check point" evidence.Localize.e_emitted;
    Format.printf "  %-16s %d@." "on the wire" evidence.Localize.e_external;
    if evidence.Localize.e_span_trail <> [] then begin
      Format.printf "@.span trail (every probe spanned during the burst):@.";
      List.iter
        (fun (stage, n) -> Format.printf "  %-16s %d span(s)@." stage n)
        evidence.Localize.e_span_trail
    end
  in
  let stage_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"STAGE"
          ~doc:"Inject a drop fault into this stage first (e.g. ma:ipv4_lpm).")
  in
  Cmd.v (Cmd.info "localize" ~doc:"Probe the pipeline and localize packet loss")
    Term.(const run $ program_arg $ stage_arg)

(* ---------------- journey ---------------- *)

let journey_cmd =
  let run name hex =
    let b = or_die (find_bundle name) in
    (* one packet: span it unconditionally *)
    let h = Harness.deploy ~quirks:Quirks.none ~span_sampling:1 b in
    let bits =
      match hex with
      | Some hx -> (
          try Bitutil.Bitstring.of_hex hx
          with Invalid_argument e -> or_die (Error e))
      | None -> Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ())
    in
    let id, disposition =
      Target.Device.inject h.Harness.device ~source:Target.Device.Generator bits
    in
    (match disposition with
    | Target.Device.Emitted out ->
        Format.printf "disposition: emitted on port %d at t=%.1fns@." out.Target.Device.o_port
          out.Target.Device.o_out_time_ns
    | Target.Device.Dropped_pipeline r -> Format.printf "disposition: dropped (%s)@." r
    | Target.Device.Dropped_queue -> Format.printf "disposition: queue drop@."
    | Target.Device.Lost_in_stage s -> Format.printf "disposition: lost in %s@." s);
    Format.printf "@.span tree (virtual time, ns):@.";
    print_span_tree Format.std_formatter
      (Telemetry.Span.spans_for_packet (Target.Device.spans h.Harness.device) id);
    Format.printf "@.%s@." (Harness.trace_health h)
  in
  let hex_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "packet" ] ~docv:"HEX"
          ~doc:"Packet bytes as hex (default: a routable UDP/IPv4 probe).")
  in
  Cmd.v
    (Cmd.info "journey"
       ~doc:"Inject one packet and print its stage-by-stage span tree")
    Term.(const run $ program_arg $ hex_arg)

(* ---------------- trace ---------------- *)

let format_names =
  [ ("chrome", `Chrome); ("jsonl", `Jsonl); ("text", `Text) ]

let trace_cmd =
  let run name quirks format sampling fuzz fuzz_seed out =
    let b = or_die (find_bundle name) in
    let h = Harness.deploy ~quirks ~span_sampling:sampling b in
    (* the same traffic a validate run drives: self-check probes plus the
       functional battery, so every sampled packet shows up as a span tree *)
    (match Harness.self_check h with
    | Ok _ -> ()
    | Error e -> or_die (Error e));
    ignore (Usecases.Functional.run ~fuzz ?fuzz_seed h);
    let spans = Device.spans h.Harness.device in
    let rendered =
      match format with
      | `Chrome -> Telemetry.Export.chrome_trace spans
      | `Jsonl -> Telemetry.Export.jsonl spans
      | `Text -> Telemetry.Export.text spans
    in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc rendered;
        close_out oc;
        Format.eprintf "wrote %s@." path
    | None -> print_string rendered);
    Format.eprintf "%s@." (Harness.trace_health h)
  in
  let format_arg =
    Arg.(
      value
      & opt (enum format_names) `Chrome
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Span export format: $(b,chrome) (trace_event JSON, loadable in Perfetto \
             / chrome://tracing), $(b,jsonl) or $(b,text).")
  in
  let sampling_arg =
    Arg.(
      value
      & opt Common_args.positive_int 1
      & info [ "sampling" ] ~docv:"N"
          ~doc:"Span 1-in-$(docv) packets (default 1: every packet).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to this file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run validation traffic on the simulated device and export per-packet spans")
    Term.(
      const run $ program_arg $ Common_args.quirks $ format_arg $ sampling_arg
      $ Common_args.fuzz $ Common_args.seed $ out_arg)

(* ---------------- metrics ---------------- *)

let metrics_cmd =
  let run name quirks fuzz fuzz_seed out =
    let b = or_die (find_bundle name) in
    let h = Harness.deploy ~quirks b in
    (match Harness.self_check h with
    | Ok _ -> ()
    | Error e -> or_die (Error e));
    ignore (Usecases.Functional.run ~fuzz ?fuzz_seed h);
    let rendered = Telemetry.Export.prometheus (Device.metrics h.Harness.device) in
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc rendered;
        close_out oc;
        Format.eprintf "wrote %s@." path
    | None -> print_string rendered
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to this file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run validation traffic and print the device metrics registry in Prometheus \
          text exposition")
    Term.(
      const run $ program_arg $ Common_args.quirks $ Common_args.fuzz
      $ Common_args.seed $ out_arg)

(* ---------------- fuzz ---------------- *)

(* a corpus directory: every *.bin file is one raw packet, in filename
   order (testgen --emit-corpus writes 000.bin, 001.bin, ...) *)
let read_corpus_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    or_die (Error (Printf.sprintf "%s: not a directory" dir));
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.sort compare
  in
  if files = [] then or_die (Error (Printf.sprintf "%s: no .bin files" dir));
  List.map
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Bitutil.Bitstring.of_string s)
    files

let fuzz_cmd =
  let run name quirks budget seed jobs blind seed_corpus report_out pcap_out =
    if blind && Option.is_some seed_corpus then
      or_die (Error "--seed-corpus seeds the guided campaign; --blind takes no corpus");
    let b = or_die (find_bundle name) in
    let seed_corpus = Option.map read_corpus_dir seed_corpus in
    let report =
      if blind then Fuzz.Campaign.run_blind ~quirks ~jobs ~budget ~seed b
      else Fuzz.Campaign.run ~quirks ?seed_corpus ~jobs ~budget ~seed b
    in
    let text = Fuzz.Campaign.render report in
    print_string text;
    (* stdout only, never the --report file: report files must stay
       byte-comparable across hosts and jobs values *)
    print_endline (Fuzz.Campaign.render_throughput report);
    (match report_out with
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Format.eprintf "wrote %s@." path
    | None -> ());
    match pcap_out with
    | Some path ->
        let records =
          List.map
            (fun d ->
              {
                Packet.Pcap.ts_ns = 0.0;
                data = Bitutil.Bitstring.to_string d.Fuzz.Campaign.dv_repro;
              })
            report.Fuzz.Campaign.rp_divergences
        in
        Packet.Pcap.write_file path records;
        Format.eprintf "wrote %d minimized repro(s) to %s@." (List.length records) path
    | None -> ()
  in
  let budget_arg =
    Arg.(
      value
      & opt Common_args.positive_int 10000
      & info [ "budget" ] ~docv:"N" ~doc:"Differential-oracle executions to spend.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign PRNG seed.")
  in
  let blind_arg =
    Arg.(
      value & flag
      & info [ "blind" ]
          ~doc:
            "Disable coverage guidance and drive the oracle with the blind \
             $(b,Vectors.fuzz) traffic (the baseline the guided campaign is compared \
             against).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Also write the text report to this file.")
  in
  let pcap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pcap" ] ~docv:"FILE"
          ~doc:"Write the minimized reproducers to a pcap capture.")
  in
  let seed_corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed-corpus" ] ~docv:"DIR"
          ~doc:
            "Seed the corpus from the $(b,.bin) packets in $(docv) (as written by \
             $(b,netdebug testgen --emit-corpus)) instead of the three built-in \
             templates — a coverage-complete start for the campaign. Not with \
             $(b,--blind), which draws no corpus.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a coverage-guided differential fuzzing campaign: spec interpreter vs \
          the quirked compiled device, with minimized, quirk-attributed \
          reproducers. The report is byte-identical for every $(b,--jobs) value")
    Term.(
      const run $ program_arg $ Common_args.quirks $ budget_arg $ seed_arg $ Common_args.jobs $ blind_arg $ seed_corpus_arg
      $ report_arg $ pcap_arg)

(* ---------------- testgen ---------------- *)

let testgen_cmd =
  let run name quirks seed max_paths jobs emit_corpus check report_out =
    let b = or_die (find_bundle name) in
    make_artifact_dir emit_corpus;
    let rt = Usecases.Functional.oracle_runtime b in
    let report =
      Symexec.Testgen.generate ?seed ?max_paths ~jobs
        ~ingress_port:Netdebug.Harness.generator_port b.Programs.program rt
    in
    let text = Symexec.Testgen.render report in
    print_string text;
    (match report_out with
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Format.eprintf "wrote %s@." path
    | None -> ());
    (match emit_corpus with
    | Some dir ->
        List.iteri
          (fun i pkt ->
            let path = Filename.concat dir (Printf.sprintf "%03d.bin" i) in
            let oc = open_out_bin path in
            output_string oc (Bitutil.Bitstring.to_string pkt);
            close_out oc)
          (Symexec.Testgen.packets report);
        Format.eprintf "wrote %d vector(s) to %s@."
          (List.length report.Symexec.Testgen.tg_vectors)
          dir
    | None -> ());
    if check then begin
      let h = Harness.deploy ~quirks b in
      let pr = Usecases.Functional.check_paths ?seed ?max_paths ~jobs h in
      Format.printf "%a@." Usecases.Functional.pp_paths pr;
      if not (Usecases.Functional.paths_agree pr) then exit 1
    end
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Per-path solver search seed.")
  in
  let max_paths_arg =
    Arg.(
      value
      & opt (some Common_args.positive_int) None
      & info [ "max-paths" ] ~docv:"N" ~doc:"Stop exploration after $(docv) paths.")
  in
  let emit_corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-corpus" ] ~docv:"DIR"
          ~doc:
            "Write the covering packets to $(docv)/000.bin, 001.bin, ... — a \
             ready-made seed corpus for $(b,netdebug fuzz --seed-corpus).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also deploy the program (under $(b,--quirks)) and drive every vector \
             through the device, comparing against the symbolic expectation. Exits \
             non-zero if any path diverges, naming the first diverging path.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Also write the text report to this file.")
  in
  Cmd.v
    (Cmd.info "testgen"
       ~doc:
         "Generate one covering packet per control-flow path of a program via \
          symbolic execution, with the expected observation per packet; optionally \
          check the deployed device against the oracle path by path")
    Term.(
      const run $ program_arg $ Common_args.quirks $ seed_arg $ max_paths_arg
      $ Common_args.jobs $ emit_corpus_arg $ check_arg $ report_arg)

(* ---------------- soak ---------------- *)

let soak_budget_arg =
  Arg.(
    value
    & opt Common_args.positive_int 100_000
    & info [ "budget" ] ~docv:"N" ~doc:"Background packets to inject.")

let soak_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Soak PRNG seed.")

let soak_rate_arg =
  Arg.(
    value
    & opt Common_args.positive_float 2.0
    & info [ "rate" ] ~docv:"MPPS"
        ~doc:"Offered background rate in millions of packets per virtual second.")

let soak_window_arg =
  Arg.(
    value
    & opt Common_args.positive_float 100_000.
    & info [ "window" ] ~docv:"NS"
        ~doc:"Sampling / health-evaluation window in virtual nanoseconds.")

let soak_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Write the observability artifacts (soak.jsonl, health.json, metrics.prom) \
           into this directory.")

let soak_cmd =
  let run name quirks budget seed rate window validations min_rate fault out =
    let b = or_die (find_bundle name) in
    make_artifact_dir out;
    let h = Harness.deploy ~quirks b in
    Option.iter (inject_drop_fault h) fault;
    let cfg =
      {
        Obs.Soak.default_cfg with
        sk_budget = budget;
        sk_seed = seed;
        sk_rate_mpps = rate;
        sk_window_ns = window;
        sk_validations_per_window = validations;
        sk_min_rate_mpps = min_rate;
      }
    in
    let r = Obs.Soak.run ~cfg h in
    print_string (Obs.Soak.render r);
    (match out with
    | Some dir ->
        List.iter
          (fun p -> Format.eprintf "wrote %s@." p)
          (Obs.Soak.write_artifacts r ~dir)
    | None -> ());
    if not (Obs.Soak.exit_ok r) then exit 1
  in
  let validations_arg =
    Arg.(
      value
      & opt Common_args.positive_int 1
      & info [ "validations" ] ~docv:"N"
          ~doc:"Generator/checker validation vectors per window.")
  in
  let min_rate_arg =
    Arg.(
      value & opt float 1.0
      & info [ "min-rate" ] ~docv:"MPPS"
          ~doc:
            "Acceptance floor on the sustained virtual packet rate; falling below it \
             fails the run.")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"STAGE"
          ~doc:
            "Inject a drop fault into this stage first (e.g. ma:ipv4_lpm) — the health \
             verdict must catch it and gate the exit code.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Sustained multi-flow background traffic (DNS/HTTP-like mixes) at millions of \
          packets per virtual second with concurrent generator/checker validation; the \
          exit code is gated on the rolling health verdict and the sustained rate")
    Term.(
      const run $ program_arg $ Common_args.quirks $ soak_budget_arg $ soak_seed_arg $ soak_rate_arg $ soak_window_arg
      $ validations_arg $ min_rate_arg $ fault_arg $ soak_out_arg)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let run name quirks port budget seed rate window out =
    let b = or_die (find_bundle name) in
    make_artifact_dir out;
    let h = Harness.deploy ~quirks b in
    let registry = Device.metrics h.Harness.device in
    let cfg =
      {
        Obs.Soak.default_cfg with
        sk_budget = (if budget = 0 then max_int else budget);
        sk_seed = seed;
        sk_rate_mpps = rate;
        sk_window_ns = window;
      }
    in
    let health = Obs.Health.create (Obs.Soak.default_rules cfg) in
    let srv =
      Obs.Http.create ~port
        [
          ( "/metrics",
            Obs.Http.route ~content_type:"text/plain; version=0.0.4" (fun () ->
                Telemetry.Export.prometheus registry) );
          ( "/health",
            Obs.Http.route ~content_type:"application/json" (fun () ->
                Obs.Health.to_json health) );
        ]
    in
    Format.printf "serving http://127.0.0.1:%d/metrics and /health while soaking %s@."
      (Obs.Http.port srv)
      (if budget = 0 then "(unbounded; interrupt to stop)"
       else Printf.sprintf "(%d packets)" budget);
    Format.print_flush ();
    (* stream JSONL to a file when asked, discard otherwise: an unbounded
       serve loop must not buffer its time series in memory *)
    let jsonl_chan =
      match out with
      | Some dir -> Some (open_out (Filename.concat dir "soak.jsonl"))
      | None -> None
    in
    let sink =
      match jsonl_chan with Some oc -> output_string oc | None -> fun _ -> ()
    in
    let r =
      Obs.Soak.run ~cfg ~health ~sink
        ~on_window:(fun _ -> ignore (Obs.Http.poll srv))
        h
    in
    (* answer stragglers before closing *)
    ignore (Obs.Http.poll srv);
    Obs.Http.close srv;
    (match jsonl_chan with Some oc -> close_out oc | None -> ());
    print_string (Obs.Soak.render r);
    Format.printf "served %d HTTP request(s)@." (Obs.Http.served srv);
    (match out with
    | Some dir ->
        let write name contents =
          let path = Filename.concat dir name in
          let oc = open_out path in
          output_string oc contents;
          close_out oc;
          Format.eprintf "wrote %s@." path
        in
        write "health.json" r.Obs.Soak.so_health_json;
        write "metrics.prom" r.Obs.Soak.so_prometheus
    | None -> ());
    if not (Obs.Soak.exit_ok r) then exit 1
  in
  let port_arg =
    Arg.(
      value
      & opt (Common_args.int_between 0 65535 "a TCP port number (0-65535)") 9464
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:"TCP port for the HTTP endpoint (0 picks an ephemeral port).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (Common_args.int_at_least 0 "a non-negative integer") 0
      & info [ "budget" ] ~docv:"N"
          ~doc:"Background packets to inject; 0 (default) runs until interrupted.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the soak workload while serving live Prometheus text exposition on \
          /metrics and the rolling health verdict on /health over HTTP")
    Term.(
      const run $ program_arg $ Common_args.quirks $ port_arg $ budget_arg $ soak_seed_arg $ soak_rate_arg $ soak_window_arg $ soak_out_arg)

(* ---------------- monitor ---------------- *)

let monitor_cmd =
  let run name quirks samples period load =
    let b = or_die (find_bundle name) in
    let h = Harness.deploy ~quirks b in
    let background =
      match b.Programs.entries with
      | _ :: _ -> Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ~payload_bytes:256 ())
      | [] -> Packet.serialize (Packet.udp_ipv4 ~payload_bytes:256 ())
    in
    let r = Obs.Monitor.run ~samples ~period_packets:period ~load h ~background in
    print_string (Obs.Monitor.render r);
    if not (Obs.Monitor.healthy r) then exit 1
  in
  let samples_arg =
    Arg.(
      value
      & opt Common_args.positive_int 10
      & info [ "samples" ] ~docv:"N" ~doc:"Status snapshots to take.")
  in
  let period_arg =
    Arg.(
      value
      & opt Common_args.positive_int 50
      & info [ "period" ] ~docv:"PACKETS" ~doc:"Background packets between snapshots.")
  in
  let load_arg =
    Arg.(
      value
      & opt Common_args.positive_float 0.5
      & info [ "load" ] ~docv:"FRACTION"
          ~doc:"Background traffic pacing as a fraction of line rate.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Periodic device status snapshots under paced live traffic, judged by the \
          health evaluator (use-case 6)")
    Term.(
      const run $ program_arg $ Common_args.quirks $ samples_arg $ period_arg $ load_arg)

(* ---------------- usecases ---------------- *)

let usecases_cmd =
  let run () =
    Format.printf "running the seven use-cases (this takes a moment)...@.@.";
    (* 1. functional *)
    let h = Harness.deploy ~quirks:Quirks.none Programs.basic_router in
    let f = Usecases.Functional.run ~fuzz:16 h in
    Format.printf "1. functional:    %s@."
      (if Usecases.Functional.passed f then "PASS" else "FAIL");
    (* 2. performance *)
    let probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ~payload_bytes:1000 ()) in
    let pts = Usecases.Performance.sweep ~loads:[ 0.5; 1.0 ] ~packets_per_point:1000 h ~probe in
    (match pts with
    | [ half; full ] ->
        Format.printf "2. performance:   %.1f / %.1f Gb/s at 50%% / 100%% load@."
          half.Usecases.Performance.pt_achieved_gbps
          full.Usecases.Performance.pt_achieved_gbps
    | _ -> ());
    (* 3. compiler check *)
    let dets = Usecases.Compiler_check.battery () in
    let caught =
      List.length
        (List.filter
           (fun d ->
             d.Usecases.Compiler_check.dq_quirk <> None
             && d.Usecases.Compiler_check.dq_detected)
           dets)
    in
    Format.printf "3. compiler:      %d/%d seeded quirks detected@." caught
      (List.length dets - 1);
    (* 4. architecture *)
    let arch = Usecases.Architecture_check.probe () in
    Format.printf "4. architecture:  %d limits discovered@." (List.length arch);
    (* 5. resources *)
    let rows = Usecases.Resources.inventory () in
    Format.printf "5. resources:     %d programs inventoried@." (List.length rows);
    (* 6. status, judged by the health evaluator *)
    let mon = Obs.Monitor.run ~samples:3 h ~background:probe in
    Format.printf "6. status:        %d snapshots, %a@."
      (List.length mon.Obs.Monitor.mo_snapshots)
      Obs.Health.pp mon.Obs.Monitor.mo_health;
    (* 7. comparison *)
    let c =
      Usecases.Comparison.run ~quirks_a:Quirks.none ~quirks_b:Quirks.none
        Programs.basic_router Programs.router_split
    in
    Format.printf "7. comparison:    %s@."
      (if Usecases.Comparison.equivalent c then "EQUIVALENT" else "DIVERGENT")
  in
  Cmd.v (Cmd.info "usecases" ~doc:"Exercise all seven use-cases briefly")
    Term.(const run $ const ())

(* ---------------- net ---------------- *)

let net_cmd =
  let parse_topo spec =
    let dims s =
      match String.split_on_char 'x' s with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
      | _ -> None
    in
    if Filename.check_suffix spec ".json" then Net.Topology.of_file spec
    else
      try
        match String.split_on_char ':' spec with
        | [ "fat-tree"; k ] -> (
            match int_of_string_opt k with
            | Some k -> Ok (Net.Topology.fat_tree k)
            | None -> Error (Printf.sprintf "bad fat-tree arity %S" k))
        | [ "leaf-spine"; d ] -> (
            match dims d with
            | Some (spines, leaves) -> Ok (Net.Topology.leaf_spine ~spines ~leaves ())
            | None -> Error (Printf.sprintf "bad leaf-spine dims %S (want SxL)" d))
        | [ "single"; n ] -> (
            match int_of_string_opt n with
            | Some hosts -> Ok (Net.Topology.single ~hosts ())
            | None -> Error (Printf.sprintf "bad host count %S" n))
        | _ ->
            Error
              (Printf.sprintf
                 "unknown topology %S (want fat-tree:K, leaf-spine:SxL, single:N or a \
                  .json file)"
                 spec)
      with Invalid_argument msg -> Error msg
  in
  let run topo_spec scenario jobs fault telemetry_dir report_file export_topo =
    let topo = or_die (parse_topo topo_spec) in
    make_artifact_dir telemetry_dir;
    Format.printf "%s@." (Net.Topology.summary topo);
    let t0 = Unix.gettimeofday () in
    let fab = Net.Fabric.create topo in
    Format.printf "deployed %d devices in %.2f s@."
      (Array.length topo.Net.Topology.nodes)
      (Unix.gettimeofday () -. t0);
    (match fault with
    | None -> ()
    | Some spec ->
        let device, stage =
          match String.index_opt spec ':' with
          | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | None -> (spec, "ma:ipv4_lpm")
        in
        or_die (Net.Fabric.inject_fault fab ~device ~stage Fault.Drop_at_stage);
        Format.printf "injected drop fault: device %s, stage %s@." device stage);
    let r = Fleet.run ~jobs scenario fab in
    print_string (Fleet.render r);
    (match export_topo with
    | Some file ->
        Net.Topology.to_file topo file;
        Format.printf "wrote %s@." file
    | None -> ());
    (match report_file with
    | Some file ->
        let oc = open_out file in
        output_string oc (Fleet.render_outcomes r);
        close_out oc;
        Format.printf "wrote %s@." file
    | None -> ());
    (match telemetry_dir with
    | Some dir ->
        let path = Filename.concat dir "metrics.prom" in
        let oc = open_out path in
        output_string oc (Telemetry.Export.prometheus r.Fleet.r_registry);
        close_out oc;
        Format.printf "wrote %s@." path
    | None -> ());
    match Fleet.failures r with
    | [] -> ()
    | first :: _ ->
        (* turn the first failing pair into a device-level localization *)
        let host name =
          match
            Array.to_list topo.Net.Topology.hosts
            |> List.find_opt (fun (h : Net.Topology.host) -> h.Net.Topology.h_name = name)
          with
          | Some h -> h
          | None -> or_die (Error ("unknown host " ^ name))
        in
        Format.printf "@.localizing first failure (%s -> %s):@." first.Fleet.o_src
          first.Fleet.o_dst;
        let verdict, ev =
          Net.Localize.locate fab ~src:(host first.Fleet.o_src)
            ~dst:(host first.Fleet.o_dst)
        in
        Format.printf "verdict: %s@." (Net.Localize.verdict_to_string verdict);
        Format.printf "path evidence (%d probes, %d delivered, %d devices examined):@."
          ev.Net.Localize.n_count ev.Net.Localize.n_delivered
          ev.Net.Localize.n_bisect_probes;
        List.iter
          (fun (dev, delta) ->
            Format.printf "  %-12s rx %Ld, %d span(s)@." dev delta
              (List.assoc dev ev.Net.Localize.n_span_counts))
          ev.Net.Localize.n_rx_deltas;
        exit 1
  in
  let topo_arg =
    Arg.(
      value & opt string "fat-tree:4"
      & info [ "topo" ] ~docv:"SPEC"
          ~doc:
            "Topology to build: $(b,fat-tree:K) (canonical k-ary fat-tree), \
             $(b,leaf-spine:SxL) (S spines, L leaves), $(b,single:N) (one switch, N \
             hosts) or a topology $(b,.json) file.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (enum [ ("reachability", Fleet.Reachability); ("waypoint", Fleet.Waypoint) ])
          Fleet.Reachability
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "What the edge generator/checker pairs assert: $(b,reachability) (every \
             probe arrives, TTL and MAC rewritten correctly) or $(b,waypoint) \
             (additionally, the device trail equals the computed path).")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"DEV[:STAGE]"
          ~doc:
            "Inject a drop fault into this device before the run (stage defaults to \
             $(b,ma:ipv4_lpm)); the run then demonstrates device-level localization.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"DIR"
          ~doc:
            "Export the merged fleet registry (per-device prefixed) as \
             $(i,DIR)/metrics.prom.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the per-pair outcome table to $(docv) — deterministic for a given \
             topology and scenario, byte-identical for every $(b,--jobs) value.")
  in
  let export_topo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export-topo" ] ~docv:"FILE"
          ~doc:"Write the topology as JSON (reloadable via $(b,--topo) $(docv)).")
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:"Build a topology, deploy the router fleet and validate it end to end")
    Term.(
      const run $ topo_arg $ scenario_arg $ Common_args.jobs $ fault_arg $ telemetry_arg
      $ report_arg $ export_topo_arg)

let () =
  let doc = "programmable validation and real-time debugging of data planes" in
  let info = Cmd.info "netdebug" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; export_cmd; compile_cmd; verify_cmd; validate_cmd;
            localize_cmd; journey_cmd; trace_cmd; metrics_cmd; testgen_cmd; fuzz_cmd;
            soak_cmd; serve_cmd; monitor_cmd; net_cmd; usecases_cmd ]))
