(* The heavy-traffic soak: sustained multi-flow background traffic
   (DNS/HTTP-like header mixes) paced at millions of packets per virtual
   second through a deployed device, with the generator/checker
   validation loop running concurrently against the spec oracle, the
   snapshot streamer sampling every window, and the health evaluator
   judging each window as it closes.

   Everything virtual-time-side is deterministic from the seed: the flow
   pool, ingress ports, pacing, validation vectors and therefore the
   health verdict. Wall-clock numbers appear only in the report text. *)

module Prng = Bitutil.Prng
module Counter = Stats.Counter
module Registry = Telemetry.Registry
module Device = Target.Device
module Harness = Netdebug.Harness
module Functional = Netdebug.Usecases.Functional
module P = Packet

type cfg = {
  sk_budget : int;  (* background packets to inject *)
  sk_seed : int;
  sk_rate_mpps : float;  (* offered background rate, virtual Mpkt/s *)
  sk_window_ns : float;  (* sampling / health window, virtual ns *)
  sk_validations_per_window : int;
  sk_min_rate_mpps : float;  (* acceptance floor on the sustained virtual rate *)
  sk_p99_ceiling_ns : float;
  sk_max_queue_depth : float;
}

let default_cfg =
  {
    sk_budget = 100_000;
    sk_seed = 1;
    sk_rate_mpps = 2.0;
    sk_window_ns = 100_000.;
    sk_validations_per_window = 1;
    sk_min_rate_mpps = 1.0;
    sk_p99_ceiling_ns = 5_000.;
    sk_max_queue_depth = 512.;
  }

let default_rules cfg =
  [
    Health.still ~label:"verdict-drift" "soak/verdict_drift";
    Health.still ~label:"checker-asserts" "assert/failed";
    Health.still ~label:"fault-drops" "drop/fault";
    Health.rate_below ~label:"rx-tail-drop" "drop/queue" 0.;
    Health.gauge_below ~label:"rxq-depth" "rxq/depth" cfg.sk_max_queue_depth;
    Health.p99_below ~label:"pipeline-p99" "pipeline/latency_ns" cfg.sk_p99_ceiling_ns;
    Health.ewma_band ~label:"tx-rate-anomaly" "tx/emitted" 0.5;
  ]

(* ------------------------------------------------------------------ *)
(* Traffic model                                                       *)
(* ------------------------------------------------------------------ *)

(* Destinations rotate over basic_router's routed prefixes so an LPM
   data plane spreads the mix across its ports; any other program just
   sees well-formed IPv4. Sources live in 172.16/12. *)
let dst_prefixes = [| 0x0A000000L; 0x0A010000L; 0xC0A80000L |]

let flow_pool ~seed =
  let prng = Prng.create (seed lxor 0x50_4F_4F_4C (* "POOL" *)) in
  Array.init 256 (fun _ ->
      let dst =
        Int64.logor (Prng.choose prng dst_prefixes) (Int64.of_int (Prng.int prng 0x10000))
      in
      let src = Int64.logor 0xAC100000L (Int64.of_int (Prng.int prng 0x100000)) in
      let eph = Int64.of_int (1024 + Prng.int prng 60000) in
      let pkt =
        match Prng.int prng 100 with
        | k when k < 25 ->
            (* DNS query: small UDP to port 53 *)
            P.udp_ipv4 ~src ~dst ~src_port:eph ~dst_port:53L ~payload_bytes:31 ()
        | k when k < 45 ->
            (* DNS response: mid-size UDP from port 53 *)
            P.udp_ipv4 ~src ~dst ~src_port:53L ~dst_port:eph
              ~payload_bytes:(64 + Prng.int prng 120)
              ()
        | k when k < 53 ->
            (* HTTP handshake: TCP SYN to port 80 *)
            P.tcp_ipv4 ~src ~dst ~src_port:eph ~dst_port:80L ~flags:0x002L ()
        | k when k < 61 ->
            (* HTTP handshake: bare ACK *)
            P.tcp_ipv4 ~src ~dst ~src_port:eph ~dst_port:80L ~flags:0x010L ()
        | k when k < 70 ->
            (* HTTP request: PSH|ACK *)
            P.tcp_ipv4 ~src ~dst ~src_port:eph ~dst_port:80L ~flags:0x018L ()
        | _ ->
            (* HTTP payload segment back from port 80 *)
            P.udp_ipv4 ~src ~dst ~src_port:80L ~dst_port:eph
              ~payload_bytes:(256 + Prng.int prng 512)
              ()
      in
      P.serialize pkt)

(* ------------------------------------------------------------------ *)
(* The soak loop                                                       *)
(* ------------------------------------------------------------------ *)

type report = {
  so_program : string;
  so_packets : int;
  so_windows : int;
  so_validated : int;
  so_drift : int;
  so_virtual_s : float;
  so_rate_mpps : float;  (* sustained virtual rate, background packets *)
  so_min_rate_mpps : float;
  so_wall_s : float;
  so_healthy : bool;
  so_firings : Health.firing list;
  so_mismatch_examples : string list;
  so_health_json : string;
  so_jsonl : string;  (* empty when a custom sink consumed the lines *)
  so_prometheus : string;
}

let rate_ok r = r.so_rate_mpps >= r.so_min_rate_mpps

let exit_ok r = r.so_healthy && rate_ok r

let run ?(cfg = default_cfg) ?health ?sink ?on_window (h : Harness.t) =
  if cfg.sk_budget <= 0 then invalid_arg "Soak.run: budget must be positive";
  if cfg.sk_rate_mpps <= 0. then invalid_arg "Soak.run: rate must be positive";
  if cfg.sk_validations_per_window < 1 then
    invalid_arg "Soak.run: validations per window must be positive";
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
  let health =
    match health with
    | Some hl -> hl
    | None -> Health.create (default_rules cfg)
  in
  let profile = Profile.attach registry in
  let sampler =
    Sampler.create ~interval_ns:cfg.sk_window_ns ?sink registry
      ~start_ns:(Device.now_ns device)
  in
  let pool = flow_pool ~seed:cfg.sk_seed in
  let prng = Prng.create cfg.sk_seed in
  let oracle = h.Harness.bundle in
  let oracle_rt = Functional.oracle_runtime oracle in
  let interval_ns = 1000. /. cfg.sk_rate_mpps in
  let per_window = max 1 (int_of_float (cfg.sk_window_ns /. interval_ns)) in
  let t0 = Device.now_ns device in
  let wall0 = Unix.gettimeofday () in
  let injected = ref 0 in
  let validated = ref 0 in
  let vec_idx = ref 0 in
  let mismatches = ref [] in
  let windows = ref 0 in
  (* background pacing cursor; validation bursts quiesce the device and
     advance its clock, so the cursor must never fall behind it *)
  let sched = ref t0 in
  while !injected < cfg.sk_budget do
    let batch = min per_window (cfg.sk_budget - !injected) in
    sched := Float.max !sched (Device.now_ns device);
    for _ = 1 to batch do
      sched := !sched +. interval_ns;
      let pkt = Prng.choose prng pool in
      ignore (Device.inject device ~source:(Device.External (Prng.int prng ports)) ~at_ns:!sched pkt);
      (* the device retains every wire emission for [Device.outputs]; the
         soak reads none, so drop each as it goes, before a minor
         collection can promote it *)
      ignore (Device.outputs device);
      Counter.incr c_bg;
      incr injected
    done;
    (* the window's validation burst as one batch: one in-device shot per
       vector, one quiesce for the burst *)
    let pkts =
      Array.init cfg.sk_validations_per_window (fun k ->
          pool.((!vec_idx + k) mod Array.length pool))
    in
    let verdicts = Functional.check_batch ~base:(!vec_idx + 1) oracle oracle_rt h pkts in
    ignore (Device.outputs device);  (* the burst's emissions, likewise *)
    vec_idx := !vec_idx + Array.length pkts;
    validated := !validated + Array.length pkts;
    Array.iter
      (function
        | Some mm ->
            Counter.incr c_drift;
            if List.length !mismatches < 5 then
              mismatches :=
                Printf.sprintf "vector %d: expected %s, got %s" mm.Functional.mm_index
                  mm.Functional.mm_expected mm.Functional.mm_got
                :: !mismatches
        | None -> Counter.incr c_ok)
      verdicts;
    Profile.tick profile;
    let w = Sampler.sample sampler ~now_ns:(Device.now_ns device) in
    ignore (Health.observe health w);
    incr windows;
    match on_window with Some f -> f w | None -> ()
  done;
  Device.quiesce device;
  let virtual_s = (Device.now_ns device -. t0) /. 1e9 in
  let wall_s = Unix.gettimeofday () -. wall0 in
  {
    so_program = oracle.P4ir.Programs.program.P4ir.Ast.p_name;
    so_packets = !injected;
    so_windows = !windows;
    so_validated = !validated;
    so_drift = Int64.to_int (Counter.get c_drift);
    so_virtual_s = virtual_s;
    so_rate_mpps =
      (if virtual_s > 0. then float_of_int !injected /. virtual_s /. 1e6 else 0.);
    so_min_rate_mpps = cfg.sk_min_rate_mpps;
    so_wall_s = wall_s;
    so_healthy = Health.healthy health;
    so_firings = Health.firings health;
    so_mismatch_examples = List.rev !mismatches;
    so_health_json = Health.to_json health;
    so_jsonl = Sampler.jsonl sampler;
    so_prometheus = Telemetry.Export.prometheus registry;
  }

(* ------------------------------------------------------------------ *)
(* Rendering and artifacts                                             *)
(* ------------------------------------------------------------------ *)

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "soak %s: %d background packets over %d windows\n" r.so_program
       r.so_packets r.so_windows);
  Buffer.add_string b
    (Printf.sprintf "  virtual: %.3f ms sustained %.2f Mpkt/s (floor %.2f) -> %s\n"
       (r.so_virtual_s *. 1e3) r.so_rate_mpps r.so_min_rate_mpps
       (if rate_ok r then "ok" else "TOO SLOW"));
  Buffer.add_string b
    (Printf.sprintf "  wall:    %.2f s (%.0f kpkt/s)\n" r.so_wall_s
       (if r.so_wall_s > 0. then float_of_int r.so_packets /. r.so_wall_s /. 1e3 else 0.));
  Buffer.add_string b
    (Printf.sprintf "  validation: %d vectors, %d drift\n" r.so_validated r.so_drift);
  Buffer.add_string b
    (Printf.sprintf "  health: %s (%d firings)\n"
       (if r.so_healthy then "healthy" else "UNHEALTHY")
       (List.length r.so_firings));
  List.iteri
    (fun i f ->
      if i < 8 then
        Buffer.add_string b (Format.asprintf "    %a\n" Health.pp_firing f))
    r.so_firings;
  if List.length r.so_firings > 8 then
    Buffer.add_string b (Printf.sprintf "    ... %d more\n" (List.length r.so_firings - 8));
  List.iter (fun m -> Buffer.add_string b (Printf.sprintf "    drift %s\n" m))
    r.so_mismatch_examples;
  Buffer.contents b

let write_artifacts r ~dir =
  Telemetry.Export.write_files ~dir
    [
      ("soak.jsonl", r.so_jsonl);
      ("health.json", r.so_health_json);
      ("metrics.prom", r.so_prometheus);
    ]
