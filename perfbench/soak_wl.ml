(* Workload [soak]: Obs.Soak.run on a basic_router harness under the
   shipped quirks with the default configuration (2 Mpkt/s virtual,
   100 us windows, one validation per window) and 25k background packets
   per repetition, so that a run holds dozens of repetitions. Unit: one
   background packet. *)

open Probe
module Device = Target.Device
module Harness = Netdebug.Harness
module Functional = Netdebug.Usecases.Functional
module Soak = Obs.Soak
module Prng = Bitutil.Prng
module Counter = Stats.Counter
module Registry = Telemetry.Registry

let bundle = P4ir.Programs.basic_router

let cfg seed = { Soak.default_cfg with Soak.sk_seed = seed; sk_budget = 25_000 }

(* a repetition passes when it is healthy, saw no drift and sustained at
   least the virtual-rate floor *)
let passed (r : Soak.report) = r.Soak.so_healthy && r.Soak.so_drift = 0 && Soak.rate_ok r

let run ~seed ~seconds =
  repeat ~seconds ~min_reps:5
    ~setup:(fun _ -> Harness.deploy bundle)
    ~units:(fun k h ->
      let r = Soak.run ~cfg:(cfg ((seed * 1000) + k)) h in
      (r.Soak.so_packets, if passed r then 0 else r.Soak.so_packets))

(* ------------------------------------------------------------------ *)
(* Traced replica                                                      *)
(* ------------------------------------------------------------------ *)

type layers = {
  inject : layer;
  check_batch : layer;
  sample : layer;
  observe : layer;
  tick : layer;
}

(* The public calls Soak.run makes, in its order, each one timed. It
   also records the background schedule (packet, port, arrival) so the
   same packets can be replayed through a twin deployment. *)
let replica (cfg : Soak.cfg) (h : Harness.t) ly =
  let device = h.Harness.device in
  let registry = Device.metrics device in
  let ports = (Device.config device).Target.Config.ports in
  let c_bg =
    Registry.counter registry ~help:"background soak packets offered to the device"
      "soak/background"
  in
  let c_ok =
    Registry.counter registry
      ~help:"concurrent validation vectors whose verdict matched the spec oracle"
      "soak/validated"
  in
  let c_drift =
    Registry.counter registry
      ~help:"concurrent validation vectors whose verdict diverged from the spec oracle"
      "soak/verdict_drift"
  in
  let health = Obs.Health.create (Soak.default_rules cfg) in
  let profile = Obs.Profile.attach registry in
  let sampler =
    Obs.Sampler.create ~interval_ns:cfg.Soak.sk_window_ns registry
      ~start_ns:(Device.now_ns device)
  in
  let pool = Soak.flow_pool ~seed:cfg.Soak.sk_seed in
  let prng = Prng.create cfg.Soak.sk_seed in
  let oracle = h.Harness.bundle in
  let oracle_rt = Functional.oracle_runtime oracle in
  let budget = cfg.Soak.sk_budget in
  let sched_pkts = Array.make budget pool.(0) in
  let sched_ports = Array.make budget 0 in
  let sched_at = Array.make budget 0. in
  let interval_ns = 1000. /. cfg.Soak.sk_rate_mpps in
  let per_window = max 1 (int_of_float (cfg.Soak.sk_window_ns /. interval_ns)) in
  let t0 = Device.now_ns device in
  let injected = ref 0 and validated = ref 0 and vec_idx = ref 0 and windows = ref 0 in
  let sched = ref t0 in
  while !injected < budget do
    let batch = min per_window (budget - !injected) in
    sched := Float.max !sched (Device.now_ns device);
    for _ = 1 to batch do
      sched := !sched +. interval_ns;
      let pkt = Prng.choose prng pool in
      let port = Prng.int prng ports in
      let at_ns = !sched in
      ignore (time ly.inject (fun () -> Device.inject device ~source:(Device.External port) ~at_ns pkt));
      sched_pkts.(!injected) <- pkt;
      sched_ports.(!injected) <- port;
      sched_at.(!injected) <- at_ns;
      Counter.incr c_bg;
      incr injected
    done;
    let n = cfg.Soak.sk_validations_per_window in
    let pkts = Array.init n (fun k -> pool.((!vec_idx + k) mod Array.length pool)) in
    let base = !vec_idx + 1 in
    let verdicts =
      time ly.check_batch (fun () -> Functional.check_batch ~base oracle oracle_rt h pkts)
    in
    vec_idx := !vec_idx + n;
    validated := !validated + n;
    Array.iter
      (function Some _ -> Counter.incr c_drift | None -> Counter.incr c_ok)
      verdicts;
    time ly.tick (fun () -> Obs.Profile.tick profile);
    let w = time ly.sample (fun () -> Obs.Sampler.sample sampler ~now_ns:(Device.now_ns device)) in
    ignore (time ly.observe (fun () -> Obs.Health.observe health w));
    incr windows
  done;
  Device.quiesce device;
  let fields =
    ( !injected,
      !windows,
      !validated,
      Int64.to_int (Counter.get c_drift),
      (Device.now_ns device -. t0) /. 1e9 )
  in
  (fields, (sched_pkts, sched_ports, sched_at))

let traced ~seed =
  let cfg = cfg (seed * 1000) in
  let compile = layer "sdnet.compile" and deploy = layer "netdebug.harness.deploy" in
  for _ = 1 to 3 do
    ignore (time compile (fun () -> Sdnet.Compile.compile_exn bundle.P4ir.Programs.program))
  done;
  let h_ref = time deploy (fun () -> Harness.deploy bundle) in
  let h_rep = time deploy (fun () -> Harness.deploy bundle) in
  (* the twin: same program and quirks, spans off, and no checker rule
     is ever armed on it *)
  let h_twin = time deploy (fun () -> Harness.deploy ~span_sampling:0 bundle) in
  let t0 = now_ns () in
  let r = Soak.run ~cfg h_ref in
  let untraced_ns = now_ns () - t0 in
  let ly =
    {
      inject = layer "target.device.inject";
      check_batch = layer "netdebug.functional.check_batch";
      sample = layer "obs.sampler.sample";
      observe = layer "obs.health.observe";
      tick = layer "obs.profile.tick";
    }
  in
  let t1 = now_ns () in
  let fields, (pkts, ports, ats) = replica cfg h_rep ly in
  let traced_ns = now_ns () - t1 in
  let want =
    (r.Soak.so_packets, r.Soak.so_windows, r.Soak.so_validated, r.Soak.so_drift, r.Soak.so_virtual_s)
  in
  if fields <> want then begin
    let p, w, v, d, s = fields in
    raise
      (Replica_diverged
         (Printf.sprintf
            "soak replica: packets %d windows %d validated %d drift %d virtual %.9f s; Soak.run: \
             packets %d windows %d validated %d drift %d virtual %.9f s"
            p w v d s r.Soak.so_packets r.Soak.so_windows r.Soak.so_validated r.Soak.so_drift
            r.Soak.so_virtual_s))
  end;
  let forward = layer "target.device.forward" in
  let twin = h_twin.Harness.device in
  Array.iteri
    (fun i pkt ->
      let source = Device.External ports.(i) and at_ns = ats.(i) in
      ignore (time forward (fun () -> Device.inject twin ~source ~at_ns pkt)))
    pkts;
  let tap =
    derived "netdebug.checker.tap" ~like:ly.inject ~ns:(ly.inject.l_ns - forward.l_ns)
      ~words:(ly.inject.l_words - forward.l_words)
  in
  let top = [ ly.inject; ly.check_batch; ly.sample; ly.observe; ly.tick ] in
  {
    tr_units = r.Soak.so_packets;
    tr_failed = (if passed r then 0 else r.Soak.so_packets);
    tr_layers = top @ [ forward; tap; compile; deploy ];
    tr_counts =
      [
        ("soak.windows", float_of_int r.Soak.so_windows);
        ("soak.validated", float_of_int r.Soak.so_validated);
      ];
    tr_residual = residual ~e2e_ns:traced_ns top;
    tr_unisolated = "Soak.run's own loop: PRNG draws, soak counters, the final quiesce";
    tr_overhead = float_of_int traced_ns /. float_of_int untraced_ns;
  }
