module Programs = P4ir.Programs
module Runtime = P4ir.Runtime
module Device = Target.Device
module Bitstring = Bitutil.Bitstring

type t = {
  bundle : Programs.bundle;
  compile_report : Sdnet.Compile.report;
  device : Device.t;
  agent : Agent.t;
  controller : Controller.t;
}

let generator_port = Device.generator_port

let deploy ?(quirks = Sdnet.Quirks.default) ?config ?(install_entries = true) ?span_sampling
    ?update_clock bundle =
  let compile_report = Sdnet.Compile.compile_exn ~quirks ?config bundle.Programs.program in
  let device = Device.create ?update_clock compile_report.Sdnet.Compile.pipeline in
  (match span_sampling with Some n -> Device.set_span_sampling device n | None -> ());
  if install_entries then begin
    match
      Runtime.install_all bundle.Programs.program (Device.runtime device)
        bundle.Programs.entries
    with
    | Ok () -> ()
    | Error e -> invalid_arg ("Harness.deploy: " ^ e)
  end;
  let host_ep, dev_ep = Channel.create () in
  let agent = Agent.create ~program:bundle.Programs.program ~device dev_ep in
  let controller = Controller.create ~pump:(fun () -> Agent.process agent) host_ep in
  { bundle; compile_report; device; agent; controller }

let replicate ?(faults = false) t =
  let r =
    deploy
      ~quirks:t.compile_report.Sdnet.Compile.quirks
      ~config:(Device.config t.device) ~install_entries:false
      ~span_sampling:(Telemetry.Span.sampling (Device.spans t.device))
      t.bundle
  in
  let src = Device.runtime t.device and dst = Device.runtime r.device in
  List.iter
    (fun table ->
      List.iter
        (fun e -> Runtime.add_exn t.bundle.Programs.program dst ~table e)
        (Runtime.entries src table))
    (Runtime.tables src);
  if faults then
    List.iter
      (fun (stage, f) -> Device.inject_fault r.device ~stage f)
      (Device.faults t.device);
  r

let trace_health t =
  let spans = Device.spans t.device in
  Printf.sprintf "telemetry: %d spans retained, %d evicted (sampling 1/%d)"
    (Telemetry.Span.count spans)
    (Telemetry.Span.dropped spans)
    (max 1 (Telemetry.Span.sampling spans))

let export_artifacts t ~dir =
  let spans = Device.spans t.device in
  Telemetry.Export.write_files ~dir
    [
      ("trace.json", Telemetry.Export.chrome_trace spans);
      ("spans.jsonl", Telemetry.Export.jsonl spans);
      ("metrics.prom", Telemetry.Export.prometheus (Device.metrics t.device));
    ]

let self_check t =
  let ( let* ) = Result.bind in
  let facts = ref [] in
  let ok fmt = Printf.ksprintf (fun s -> facts := s :: !facts) fmt in
  (* 1. management channel round-trips *)
  let* status = Controller.read_status t.controller in
  ok "management channel round-trips (device virtual time %.0f ns)"
    status.Wire.ss_time_ns;
  (* 2. injection bypasses the input interfaces *)
  let rx_ext_before =
    Stats.Counter.Set.get (Device.counters t.device) "rx/external"
  in
  let probe = Packet.serialize (Packet.udp_ipv4 ()) in
  let* () = Controller.configure_checker t.controller [] in
  let* () =
    Controller.configure_generator t.controller [ Controller.stream probe ]
  in
  let* () = Controller.start_generator t.controller in
  let rx_ext_after = Stats.Counter.Set.get (Device.counters t.device) "rx/external" in
  let rx_gen = Stats.Counter.Set.get (Device.counters t.device) "rx/generator" in
  if rx_ext_after <> rx_ext_before then
    Error "generator traffic appeared on the external interfaces"
  else begin
    ok "injection point bypasses the input interfaces (%Ld generator packets, 0 external)"
      rx_gen;
    (* 3. check point sits before the output interfaces: break every port;
       the checker must still see emissions *)
    let cfg = Device.config t.device in
    ignore (Device.outputs t.device);
    for p = 0 to cfg.Target.Config.ports - 1 do
      Device.set_port_broken t.device p true
    done;
    let* () = Controller.clear_test_state t.controller in
    let* () = Controller.configure_generator t.controller [ Controller.stream probe ] in
    let* () = Controller.start_generator t.controller in
    let* summary = Controller.read_checker t.controller in
    for p = 0 to cfg.Target.Config.ports - 1 do
      Device.set_port_broken t.device p false
    done;
    let externally_visible = List.length (Device.outputs t.device) in
    (* the probe may legitimately be dropped by the program; only when it
       is emitted do we learn about the check point *)
    if summary.Wire.cs_total_seen > 0 && externally_visible > 0 then
      Error "packet escaped through a broken output interface"
    else begin
      if summary.Wire.cs_total_seen > 0 then
        ok "check point observes packets ahead of the output interfaces (%d seen with all ports dark)"
          summary.Wire.cs_total_seen
      else ok "probe dropped by the program; check point wiring verified vacuously";
      ok "pipeline: %d stages, %d cycles zero-load"
        (List.length t.compile_report.Sdnet.Compile.pipeline.Target.Pipeline.stages)
        (Target.Pipeline.total_latency_cycles t.compile_report.Sdnet.Compile.pipeline);
      Ok (List.rev !facts)
    end
  end
