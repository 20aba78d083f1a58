(* Tests for the observability plane: JSON round-trips, snapshot
   streamer windows, golden health documents, the partition property
   (windowed deltas sum to whole-run totals), the soak loop's artifacts
   and fault gate, the jobs=4 merge regression, and the HTTP endpoint. *)

module Counter = Stats.Counter
module Histogram = Stats.Histogram
module Registry = Telemetry.Registry
module Json = Obs.Json
module Sampler = Obs.Sampler
module Health = Obs.Health
module Soak = Obs.Soak
module Monitor = Obs.Monitor
module Harness = Netdebug.Harness
module Usecases = Netdebug.Usecases
module Programs = P4ir.Programs
module Device = Target.Device
module Fault = Target.Fault
module P = Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------------- JSON ---------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "line\nbreak \\ \"quote\"");
        ("n", Json.Num 3.5);
        ("big", Json.Num 1234567890123.);
        ("neg", Json.Num (-2.));
        ("a", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("o", Json.Obj [ ("k", Json.Num 0.) ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check_bool "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
  (match Json.of_string "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage should be rejected"
  | Error _ -> ());
  match Json.of_string "{\"a\":" with
  | Ok _ -> Alcotest.fail "truncated input should be rejected"
  | Error _ -> ()

(* integral numbers skip Printf; the digits must be those "%.0f" prints *)
let prop_json_integral_numbers =
  let integral =
    QCheck.Gen.(
      oneof
        [
          map float_of_int (int_range (-1_000_000) 1_000_000);
          map (fun f -> Float.round f) (float_range (-1e15) 1e15);
          oneofl [ 0.; -0.; 999_999_999_999_999.; -999_999_999_999_999. ];
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"integral numbers render as %.0f"
    (QCheck.make ~print:string_of_float integral)
    (fun f -> Float.abs f >= 1e15 || Json.to_string (Json.Num f) = Printf.sprintf "%.0f" f)

(* ---------------- sampler ---------------- *)

let test_sampler_windows () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"packets" "pkts" in
  let depth = ref 3. in
  Registry.gauge r ~help:"depth" "depth" (fun () -> !depth);
  let h = Registry.histogram r ~help:"latency" "lat" in
  let s = Sampler.create ~interval_ns:1000. r ~start_ns:0. in
  check_bool "no sample before boundary" true (Sampler.tick s ~now_ns:500. = None);
  Counter.add c 7L;
  Histogram.add h 10.;
  Histogram.add h 20.;
  let w1 = Sampler.sample s ~now_ns:1000. in
  Counter.add c 5L;
  depth := 9.;
  Histogram.add h 1000.;
  let w2 = Sampler.sample s ~now_ns:2000. in
  check_int "w1 seq" 0 w1.Sampler.w_seq;
  check_int "w2 seq" 1 w2.Sampler.w_seq;
  Alcotest.(check int64) "w1 delta" 7L (Sampler.counter_delta w1 "pkts");
  Alcotest.(check int64) "w2 delta" 5L (Sampler.counter_delta w2 "pkts");
  Alcotest.(check int64) "absent counter is zero" 0L (Sampler.counter_delta w1 "nope");
  check_bool "w1 gauge" true (Sampler.gauge_value w1 "depth" = Some 3.);
  check_bool "w2 gauge" true (Sampler.gauge_value w2 "depth" = Some 9.);
  (match Sampler.hist_window w2 "lat" with
  | None -> Alcotest.fail "w2 should carry the lat window"
  | Some wh ->
      (* only the third sample lands in window 2 *)
      check_int "windowed dataset" 1 (Histogram.count wh);
      check_bool "windowed p99 sees only window samples" true
        (Histogram.percentile wh 99. > 100.));
  (* every emitted line is valid JSON *)
  String.split_on_char '\n' (String.trim (Sampler.jsonl s))
  |> List.iter (fun line ->
         match Json.of_string line with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "bad jsonl line %S: %s" line e)

(* ---------------- health: golden JSON ---------------- *)

let test_health_golden_json () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"verdict drift" "drift" in
  let s = Sampler.create ~interval_ns:100_000. r ~start_ns:0. in
  let hl = Health.create [ Health.still ~label:"no-drift" "drift" ] in
  ignore (Health.observe hl (Sampler.sample s ~now_ns:100_000.));
  check_bool "quiet window healthy" true (Health.healthy hl);
  Counter.add c 2L;
  ignore (Health.observe hl (Sampler.sample s ~now_ns:200_000.));
  let golden =
    "{\"verdict\":\"unhealthy\",\"windows\":2,"
    ^ "\"rules\":[{\"rule\":\"no-drift\",\"firings\":1,\"last_observed\":2}],"
    ^ "\"firings\":[{\"rule\":\"no-drift\",\"window\":1,\"t1_ns\":200000,"
    ^ "\"observed\":2,\"limit\":0,\"detail\":\"drift moved by 2 in window 1\"}],"
    ^ "\"firings_total\":1}"
  in
  check_string "health json golden" golden (Health.to_json hl);
  (* and the golden document re-reads through our own parser *)
  match Json.of_string golden with
  | Error e -> Alcotest.failf "golden should parse: %s" e
  | Ok j ->
      check_bool "verdict field" true
        (Json.member "verdict" j |> Option.map Json.to_str
        = Some (Some "unhealthy"))

let test_health_rules () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"drops" "drops" in
  let depth = ref 0. in
  Registry.gauge r ~help:"depth" "depth" (fun () -> !depth);
  let h = Registry.histogram r ~help:"lat" "lat" in
  let s = Sampler.create ~interval_ns:1000. r ~start_ns:0. in
  let hl =
    Health.create
      [
        Health.rate_below ~label:"drop-rate" "drops" 0.;
        Health.gauge_below ~label:"depth" "depth" 10.;
        Health.p99_below ~label:"lat-p99" "lat" 100.;
      ]
  in
  let now = ref 0. in
  let window () =
    now := !now +. 1000.;
    Health.observe hl (Sampler.sample s ~now_ns:!now)
  in
  check_int "quiet window" 0 (List.length (window ()));
  Counter.incr c;
  depth := 11.;
  Histogram.add h 5000.;
  let fired = window () in
  check_int "all three rules fire" 3 (List.length fired);
  depth := 0.;
  check_int "one more quiet window recovers nothing new" 0 (List.length (window ()));
  check_bool "verdict sticks" false (Health.healthy hl);
  check_int "windows counted" 3 (Health.windows_seen hl)

let test_health_ewma_band () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"tx" "tx" in
  let s = Sampler.create ~interval_ns:1000. r ~start_ns:0. in
  let hl = Health.create [ Health.ewma_band ~warmup:3 ~label:"tx-anomaly" "tx" 0.5 ] in
  let now = ref 0. in
  let window add =
    Counter.add c (Int64.of_int add);
    now := !now +. 1000.;
    Health.observe hl (Sampler.sample s ~now_ns:!now)
  in
  (* steady state through warmup and beyond: no firings *)
  for _ = 1 to 6 do
    check_int "steady windows quiet" 0 (List.length (window 100))
  done;
  (* a 10x burst deviates far beyond the 50% band *)
  check_int "burst fires" 1 (List.length (window 1000));
  (* the anomalous window did not poison the baseline: steady rate is fine *)
  check_int "baseline survives the burst" 0 (List.length (window 100))

(* ---------------- partition property ---------------- *)

(* When windows partition the run, summed per-window counter deltas and
   histogram window datasets must equal the whole-run totals — i.e. the
   time-weighted windowed rate is exactly the whole-run rate. *)
let prop_windows_partition =
  QCheck.Test.make ~name:"windowed deltas partition whole-run totals" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 10)
        (pair
           (list_of_size (Gen.int_range 0 12) (int_range 0 50))
           (list_of_size (Gen.int_range 0 8) (int_range 1 10_000))))
    (fun steps ->
      let r = Registry.create () in
      let c = Registry.counter r ~help:"c" "c" in
      let h = Registry.histogram r ~help:"h" "h" in
      let s = Sampler.create ~interval_ns:1000. r ~start_ns:0. in
      let now = ref 0. in
      let sum_deltas = ref 0L and sum_hist = ref 0 in
      List.iter
        (fun (incs, samples) ->
          List.iter (fun i -> Counter.add c (Int64.of_int i)) incs;
          List.iter (fun v -> Histogram.add h (float_of_int v)) samples;
          now := !now +. 1000.;
          let w = Sampler.sample s ~now_ns:!now in
          sum_deltas := Int64.add !sum_deltas (Sampler.counter_delta w "c");
          match Sampler.hist_window w "h" with
          | Some wh -> sum_hist := !sum_hist + Histogram.count wh
          | None -> ())
        steps;
      let elapsed_s = !now /. 1e9 in
      let whole_rate = Int64.to_float (Counter.get c) /. elapsed_s in
      let windowed_rate = Int64.to_float !sum_deltas /. elapsed_s in
      !sum_deltas = Counter.get c
      && !sum_hist = Histogram.count h
      && Float.abs (whole_rate -. windowed_rate) <= 1e-9 *. Float.max 1. whole_rate)

(* ---------------- soak ---------------- *)

let test_soak_artifacts_roundtrip () =
  let h = Harness.deploy Programs.basic_router in
  let cfg = { Soak.default_cfg with Soak.sk_budget = 2_000 } in
  let r = Soak.run ~cfg h in
  check_bool "healthy" true r.Soak.so_healthy;
  check_bool "exit gate passes" true (Soak.exit_ok r);
  check_int "all packets offered" 2_000 r.Soak.so_packets;
  check_int "zero drift" 0 r.Soak.so_drift;
  check_bool "sustains the configured floor" true (Soak.rate_ok r);
  (* the JSONL stream parses line by line, and its counter deltas
     partition the run: they must sum back to the whole-run totals *)
  let bg = ref 0L and validated = ref 0L in
  String.split_on_char '\n' (String.trim r.Soak.so_jsonl)
  |> List.iter (fun line ->
         match Json.of_string line with
         | Error e -> Alcotest.failf "bad jsonl: %s" e
         | Ok j -> (
             match Json.member "counters" j with
             | None -> Alcotest.fail "jsonl line without counters"
             | Some cs ->
                 let add acc name =
                   match Json.member name cs with
                   | Some v -> (
                       match Json.to_float v with
                       | Some f -> acc := Int64.add !acc (Int64.of_float f)
                       | None -> Alcotest.fail "counter delta not a number")
                   | None -> ()
                 in
                 add bg "soak/background";
                 add validated "soak/validated"));
  Alcotest.(check int64) "jsonl background deltas sum to budget" 2_000L !bg;
  Alcotest.(check int64)
    "jsonl validated deltas sum to the vector count"
    (Int64.of_int r.Soak.so_validated)
    !validated;
  (* the health document round-trips through our parser *)
  (match Json.of_string r.Soak.so_health_json with
  | Error e -> Alcotest.failf "health json should parse: %s" e
  | Ok j ->
      check_bool "verdict healthy" true
        (Json.member "verdict" j |> Option.map Json.to_str = Some (Some "healthy")));
  (* and the Prometheus exposition carries the soak counters *)
  check_bool "prometheus has the background counter" true
    (contains r.Soak.so_prometheus "netdebug_soak_background 2000\n");
  check_bool "prometheus has the drift counter" true
    (contains r.Soak.so_prometheus "netdebug_soak_verdict_drift 0\n")

let test_soak_bounded () =
  (* the soak's background traffic is only counted by the checker: rule
     evaluations come from the validation vectors alone, and none fails *)
  let h = Harness.deploy Programs.basic_router in
  Alcotest.check_raises "a window without validation is refused"
    (Invalid_argument "Soak.run: validations per window must be positive") (fun () ->
      let cfg = { Soak.default_cfg with Soak.sk_budget = 2_000; sk_validations_per_window = 0 } in
      ignore (Soak.run ~cfg h));
  let r = Soak.run ~cfg:{ Soak.default_cfg with Soak.sk_budget = 2_000 } h in
  check_bool "healthy" true r.Soak.so_healthy;
  let metrics = Device.metrics h.Harness.device in
  let get name = Counter.get (Registry.counter metrics name) in
  Alcotest.(check int64) "no rule evaluation failed" 0L (get "checker/fail");
  (* one expected-field rule per header field plus the port rule, for
     each of the run's validation vectors: far fewer than the emissions *)
  check_bool "only validation vectors are judged" true
    (get "checker/pass" > 0L && get "checker/pass" < Int64.of_int (20 * r.Soak.so_validated))

(* Everything virtual-time-side is deterministic from the seed; only the
   gc/* gauges depend on real process state, so strip gauges before
   comparing the streams. *)
let strip_gauges jsonl =
  String.split_on_char '\n' (String.trim jsonl)
  |> List.map (fun line ->
         match Json.of_string line with
         | Error e -> Alcotest.failf "bad jsonl: %s" e
         | Ok (Json.Obj fields) ->
             Json.to_string (Json.Obj (List.remove_assoc "gauges" fields))
         | Ok _ -> Alcotest.fail "jsonl line is not an object")
  |> String.concat "\n"

let test_soak_deterministic () =
  let once () =
    let h = Harness.deploy Programs.basic_router in
    Soak.run ~cfg:{ Soak.default_cfg with Soak.sk_budget = 1_000 } h
  in
  let a = once () and b = once () in
  check_string "jsonl streams identical up to gc gauges"
    (strip_gauges a.Soak.so_jsonl) (strip_gauges b.Soak.so_jsonl);
  check_string "health documents identical" a.Soak.so_health_json b.Soak.so_health_json;
  check_bool "virtual time identical" true (a.Soak.so_virtual_s = b.Soak.so_virtual_s)

let test_soak_fault_gate () =
  let h = Harness.deploy Programs.basic_router in
  Device.inject_fault h.Harness.device ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
  let r = Soak.run ~cfg:{ Soak.default_cfg with Soak.sk_budget = 1_000 } h in
  check_bool "unhealthy" false r.Soak.so_healthy;
  check_bool "exit gate fails" false (Soak.exit_ok r);
  check_bool "validation catches the drift" true (r.Soak.so_drift > 0);
  check_bool "fault-drops rule names the evidence" true
    (List.exists (fun f -> f.Health.fg_rule = "fault-drops") r.Soak.so_firings);
  check_bool "drift rule fires too" true
    (List.exists (fun f -> f.Health.fg_rule = "verdict-drift") r.Soak.so_firings)

(* ---------------- jobs=4 merge regression ---------------- *)

(* Health rules read the device registry; a parallel sweep folds worker
   registries back through [Registry.merge], which must leave every
   health-rule input exactly as a sequential run would. *)
let health_inputs h =
  let interesting =
    [ "tx/emitted"; "drop/queue"; "drop/pipeline"; "drop/fault"; "assert/failed" ]
  in
  Registry.snapshot (Device.metrics h.Harness.device)
  |> List.filter_map (fun (name, _help, value) ->
         match value with
         | Registry.Counter v when List.mem name interesting ->
             Some (name, Int64.to_float v)
         | Registry.Histogram hh when name = "pipeline/latency_ns" ->
             Some (name, float_of_int (Histogram.count hh))
         | _ -> None)

let test_merge_preserves_health_inputs () =
  let sweep jobs =
    let h = Harness.deploy ~quirks:Sdnet.Quirks.none Programs.basic_router in
    let r = Usecases.Functional.run ~fuzz:16 ~jobs h in
    check_bool "sweep passed" true (Usecases.Functional.passed r);
    health_inputs h
  in
  let seq = sweep 1 and par = sweep 4 in
  check_int "same metric set" (List.length seq) (List.length par);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      check_string "metric name" n1 n2;
      Alcotest.(check (float 0.0)) ("jobs=4 preserves " ^ n1) v1 v2)
    seq par

(* ---------------- monitor ---------------- *)

let test_monitor_health () =
  let h = Harness.deploy Programs.basic_router in
  let background = P.serialize (P.udp_ipv4 ~dst:0x0A000001L ()) in
  let res = Monitor.run ~samples:3 ~period_packets:20 h ~background in
  check_int "snapshots" 3 (List.length res.Monitor.mo_snapshots);
  check_int "consecutive pairs become windows" 2
    (Health.windows_seen res.Monitor.mo_health);
  check_bool "healthy under light load" true (Monitor.healthy res);
  check_bool "render mentions the verdict" true (contains (Monitor.render res) "healthy")

(* ---------------- HTTP endpoint ---------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  fd

let read_reply fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  (try
     let rec loop () =
       let n = Unix.read fd chunk 0 1024 in
       if n > 0 then begin
         Buffer.add_subbytes b chunk 0 n;
         loop ()
       end
     in
     loop ()
   with Unix.Unix_error _ -> ());
  Unix.close fd;
  Buffer.contents b

let test_http_roundtrip () =
  let calls = ref 0 in
  let srv =
    Obs.Http.create
      [
        ( "/metrics",
          Obs.Http.route ~content_type:"text/plain" (fun () ->
              incr calls;
              Printf.sprintf "probe %d\n" !calls) );
      ]
  in
  let port = Obs.Http.port srv in
  check_bool "ephemeral port assigned" true (port > 0);
  List.iter
    (fun bad ->
      Alcotest.check_raises (Printf.sprintf "port %d refused" bad)
        (Invalid_argument "Http.create: port must be in 0..65535") (fun () ->
          ignore (Obs.Http.create ~port:bad [])))
    [ -1; 65536; 70000 ];
  (* query strings are stripped before route matching *)
  let fd = http_get port "/metrics?window=1" in
  ignore (Obs.Http.poll srv);
  let reply = read_reply fd in
  check_bool "200" true (contains reply "HTTP/1.0 200 OK");
  check_bool "live body" true (contains reply "probe 1");
  check_bool "content length set" true (contains reply "Content-Length:");
  let fd2 = http_get port "/nope" in
  ignore (Obs.Http.poll srv);
  let reply2 = read_reply fd2 in
  check_bool "404" true (contains reply2 "HTTP/1.0 404");
  check_int "both requests served" 2 (Obs.Http.served srv);
  Obs.Http.close srv;
  check_int "closed server serves nothing" 0 (Obs.Http.poll srv)

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "to_string/of_string roundtrip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_integral_numbers;
        ]
      );
      ( "sampler",
        [ Alcotest.test_case "windows and deltas" `Quick test_sampler_windows ] );
      ( "health",
        [
          Alcotest.test_case "golden json" `Quick test_health_golden_json;
          Alcotest.test_case "rule kinds fire" `Quick test_health_rules;
          Alcotest.test_case "ewma band" `Quick test_health_ewma_band;
        ] );
      ( "soak",
        [
          Alcotest.test_case "artifacts roundtrip" `Quick test_soak_artifacts_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
          Alcotest.test_case "fault gates the exit" `Quick test_soak_fault_gate;
          Alcotest.test_case "bounded retention and judging" `Quick test_soak_bounded;
        ] );
      ( "merge",
        [
          Alcotest.test_case "jobs=4 preserves health inputs" `Quick
            test_merge_preserves_health_inputs;
        ] );
      ( "monitor",
        [ Alcotest.test_case "status windows judged" `Quick test_monitor_health ] );
      ( "http",
        [ Alcotest.test_case "loopback roundtrip" `Quick test_http_roundtrip ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_windows_partition ] );
    ]
