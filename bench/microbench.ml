(* Bechamel microbenchmarks: one Test.make per cost table in
   EXPERIMENTS.md (B1-B10). Measures the per-operation cost of every hot
   path in the simulator and toolchain. *)

(* nanoseconds; bound before [Toolkit] shadows the module *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

open Bechamel
open Toolkit

module Programs = P4ir.Programs
module Runtime = P4ir.Runtime
module Interp = P4ir.Interp
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Device = Target.Device
module Entry = P4ir.Entry
module Value = P4ir.Value

let routed_probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ())

(* A basic_router device with its routes installed. Interpreter rows pin
   their engine: B2/B2c are the tree-walking baselines. *)
let make_device () =
  let report = Compile.compile_exn ~quirks:Quirks.none Programs.basic_router.Programs.program in
  let d = Device.create report.Compile.pipeline in
  (match
     Runtime.install_all Programs.basic_router.Programs.program (Device.runtime d)
       Programs.basic_router.Programs.entries
   with
  | Ok () -> ()
  | Error e -> failwith e);
  d

(* One routed-probe forward through [d]. *)
let forward d () = ignore (Device.inject d ~source:(Device.External 0) routed_probe)

(* B2/B2c: the tree interpreter's forward on its own routes, bare and
   with the fuzzer's spec-side coverage edge recording. B2 is the baseline
   the staged device must beat. Both are measured in [interleaved_rows]. *)
let interp_forward () =
  let rt = Runtime.create () in
  (match
     Runtime.install_all Programs.basic_router.Programs.program rt
       Programs.basic_router.Programs.entries
   with
  | Ok () -> ()
  | Error e -> failwith e);
  fun () ->
    Interp.process ~engine:`Tree Programs.basic_router.Programs.program rt ~ingress_port:0
      routed_probe

let b2_forward =
  let f = interp_forward () in
  fun () -> ignore (f ())

let b2c_forward_coverage =
  let f = interp_forward () in
  let cov = Fuzz.Coverage.create () in
  fun () -> Fuzz.Coverage.record_spec cov (f ())

let b3_generator =
  let h = Netdebug.Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let ctl = h.Netdebug.Harness.controller in
  let ok = function Ok v -> v | Error e -> failwith e in
  let () = ok (Netdebug.Controller.configure_checker ctl []) in
  let stream =
    Netdebug.Controller.stream
      ~mutations:[ Netdebug.Wire.Sweep_field ("ipv4", "dst", 0x0A000001L, 1L) ]
      routed_probe
  in
  Test.make ~name:"B3 generator: render+inject one mutated packet"
    (Staged.stage (fun () ->
         ok (Netdebug.Controller.configure_generator ctl [ stream ]);
         ok (Netdebug.Controller.start_generator ctl)))

let b4_checker_rule =
  let program = Programs.basic_router.Programs.program in
  let env = P4ir.Env.create program in
  let ctx = P4ir.Exec.make_ctx ~env ~runtime:(Runtime.create ()) () in
  let hooks =
    { P4ir.Parse.on_reject = `Continue; verify_checksum = false; max_steps = 64 }
  in
  let () = ignore (P4ir.Parse.run ~hooks ctx routed_probe) in
  let rule = P4ir.Dsl.(fld "ipv4" "ttl" ==: const ~width:8 64) in
  Test.make ~name:"B4 checker: evaluate one rule"
    (Staged.stage (fun () -> ignore (P4ir.Exec.eval ctx rule)))

(* B5/B5b/B5c: first-match lookup cost as the route table scales. B5 keeps
   its historical row name — the committed JSON baseline and the CI gate
   compare by exact name — but now routes through [Runtime.lookup], i.e.
   the bucketed classifier, on a BGP-like 1024-prefix table; B5s keeps the
   legacy linear scan measurable on the same table for context. B5b/B5c
   scale to 65k and 1M prefixes via [Test.make_with_resource] so the
   multi-second full-feed install runs inside the benchmark, not at module
   init. Keys are prebuilt and cycled through a preallocated ref so the
   measured loop allocates nothing. *)
let b5_table n =
  let rt = Runtime.create () in
  let prefixes = Routes.prefixes ~seed:7 ~n in
  Array.iter
    (fun (addr, len) ->
      Runtime.add_exn Routes.program rt ~table:Routes.table_name (Routes.entry ~addr ~len))
    prefixes;
  let addrs = Routes.lookup_addrs ~seed:7 ~hit_ratio:900 prefixes ~n:4096 in
  let keys = Array.map Routes.key_of_addr addrs in
  (* one touch so classifier construction is not billed to the first run *)
  ignore (Runtime.lookup rt ~table:Routes.table_name ~degrade_ternary_to_exact:false keys.(0));
  (rt, keys, ref 0)

let b5_step (rt, keys, i) =
  let k = keys.(!i) in
  i := (!i + 1) land (Array.length keys - 1);
  ignore (Runtime.lookup rt ~table:Routes.table_name ~degrade_ternary_to_exact:false k)

let b5_lpm_lookup =
  let res = b5_table 1024 in
  Test.make ~name:"B5 lpm: select over 1024 entries"
    (Staged.stage (fun () -> b5_step res))

let b5s_lpm_scan =
  let _, keys, i = b5_table 1024 in
  let entries =
    Array.to_list
      (Array.map (fun (addr, len) -> Routes.entry ~addr ~len) (Routes.prefixes ~seed:7 ~n:1024))
  in
  Test.make ~name:"B5s lpm: legacy linear scan over 1024 entries"
    (Staged.stage (fun () ->
         let k = keys.(!i) in
         i := (!i + 1) land (Array.length keys - 1);
         ignore (Entry.select entries k)))

let b5b_lpm_65k =
  Test.make_with_resource ~name:"B5b lpm: 65,536-prefix table, one lookup" Test.uniq
    ~allocate:(fun () -> b5_table 65_536)
    ~free:(fun _ -> ())
    (Staged.stage b5_step)

let b5c_lpm_1m =
  Test.make_with_resource ~name:"B5c lpm: 1,048,576-prefix table, one lookup" Test.uniq
    ~allocate:(fun () -> b5_table 1_048_576)
    ~free:(fun _ -> ())
    (Staged.stage b5_step)

let b6_symexec =
  let rt = Runtime.create () in
  let () =
    match
      Runtime.install_all Programs.basic_router.Programs.program rt
        Programs.basic_router.Programs.entries
    with
    | Ok () -> ()
    | Error e -> failwith e
  in
  Test.make ~name:"B6 symexec: explore basic_router"
    (Staged.stage (fun () ->
         ignore (Symexec.Sexec.explore Programs.basic_router.Programs.program rt)))

let b7_compile =
  Test.make ~name:"B7 sdnet: compile basic_router"
    (Staged.stage (fun () ->
         ignore (Compile.compile_exn Programs.basic_router.Programs.program)))

let b8_checksum =
  let payload = String.make 1500 'x' in
  Test.make ~name:"B8 checksum: 1500B internet checksum"
    (Staged.stage (fun () -> ignore (Bitutil.Checksum.checksum payload)))

let b9_kv_get =
  let report = Compile.compile_exn ~quirks:Quirks.none Programs.kv_cache.Programs.program in
  let d = Device.create report.Compile.pipeline in
  let kv_get =
    let w = Bitutil.Bitstring.Writer.create () in
    Bitutil.Bitstring.Writer.push_bits w
      (Packet.Eth.to_bits (Packet.Eth.make ~ethertype:0x1235L ()));
    Bitutil.Bitstring.Writer.push_int64 w ~width:8 1L;
    Bitutil.Bitstring.Writer.push_int64 w ~width:16 7L;
    Bitutil.Bitstring.Writer.push_int64 w ~width:32 0L;
    Bitutil.Bitstring.Writer.push_int64 w ~width:8 0L;
    Bitutil.Bitstring.Writer.contents w
  in
  Test.make ~name:"B9 kv_cache device: one GET"
    (Staged.stage (fun () -> ignore (Device.inject d ~source:(Device.External 0) kv_get)))

let b10_wire_roundtrip =
  let msg =
    Netdebug.Wire.Configure_checker
      [
        {
          Netdebug.Wire.r_name = "r";
          r_filter = Some P4ir.Dsl.(fld "ipv4" "ttl" ==: const ~width:8 63);
          r_expect = P4ir.Dsl.(P4ir.Ast.Std P4ir.Ast.Egress_spec ==: const ~width:9 1);
        };
      ]
  in
  Test.make ~name:"B10 wire: encode+decode a checker config"
    (Staged.stage (fun () ->
         match Netdebug.Wire.decode_host (Netdebug.Wire.encode_host msg) with
         | Ok _ -> ()
         | Error e -> failwith e))

(* B11/B11b: B14 with the span store fully on / at the default 1-in-64
   sampling. B11 is measured in [interleaved_rows]. *)
let b11_forward_spans =
  let d = make_device () in
  Device.set_span_sampling d 1;
  forward d

let b11b_device_forward_spans_sampled =
  let d = make_device () in
  let () = Device.set_span_sampling d 64 in
  Test.make ~name:"B11b device: forward one packet, spans 1/64" (Staged.stage (forward d))

(* B14/B14c: a device forward — the program compiled to closures at
   deploy time — bare and with the fuzzer's coverage taps installed. The
   gates below assert that staging pays for itself (B14w, the B14 forward
   timed in [interleaved_rows], against the B2 tree interpreter) and that
   the taps keep it so (B14c against B2). B14c is measured in
   [interleaved_rows]. *)
let b14_forward = forward (make_device ())

let b14_device_forward_staged =
  Test.make ~name:"B14 device: forward one packet, staged engine" (Staged.stage b14_forward)

let b14c_forward_coverage =
  let d = make_device () in
  Fuzz.Coverage.attach_device (Fuzz.Coverage.create ()) d;
  forward d

(* B15: B14 with the snapshot streamer's boundary check riding the packet
   path. Off-boundary, [Sampler.tick] is a single float compare; at a
   5 µs virtual window a full registry sample lands every ~10 packets,
   so the row prices the *amortized* cost of continuous streaming, not
   just the fast path. Lines go to a discarding sink (serve's default
   for unbounded runs). Measured in [interleaved_rows]. *)
let b15_forward_streamed =
  let d = make_device () in
  let s =
    Obs.Sampler.create ~interval_ns:5_000.
      ~sink:(fun _ -> ())
      (Device.metrics d) ~start_ns:(Device.now_ns d)
  in
  fun () ->
    forward d ();
    ignore (Obs.Sampler.tick s ~now_ns:(Device.now_ns d))

(* B16: one host-to-host forward through the co-simulated network fabric —
   the B14 staged device forward with the fabric's event heap, probe
   bookkeeping, trail and delivery accounting wrapped around it. Topology:
   a single switch with two hosts, so each operation is exactly one staged
   device traversal plus pure fabric overhead. Measured in
   [interleaved_rows] and gated at B16/B14w <= 1.15x: the fabric must
   stay a thin scheduler around the device, not a second data plane. *)
let b16_fabric_forward =
  let topo = Net.Topology.single ~hosts:2 () in
  let fab = Net.Fabric.create topo in
  let src = topo.Net.Topology.hosts.(0) in
  let dst = topo.Net.Topology.hosts.(1) in
  let bits = Net.Fleet.probe_bits ~payload_bytes:26 src dst in
  fun () ->
    Net.Fabric.clear_probes fab;
    let id = Net.Fabric.send fab ~src bits in
    Net.Fabric.run fab;
    ignore (Net.Fabric.fate fab id)

(* B17: the full test-oracle pipeline on basic_router — path exploration,
   adversarial witness hardening, per-path solving and expectation
   derivation for all 8 paths. The absolute gate keeps path-covering
   generation cheap enough to run per commit (the CI testgen smoke) and
   at every deploy. *)
let b17_testgen =
  let rt = Runtime.create () in
  let () =
    match
      Runtime.install_all Programs.basic_router.Programs.program rt
        Programs.basic_router.Programs.entries
    with
    | Ok () -> ()
    | Error e -> failwith e
  in
  Test.make ~name:"B17 testgen: path-covering vectors for basic_router"
    (Staged.stage (fun () ->
         ignore
           (Symexec.Testgen.generate ~ingress_port:Netdebug.Harness.generator_port
              Programs.basic_router.Programs.program rt)))

(* B12: one full differential-oracle execution — interpreter, device via
   the generator/checker loop, coverage on both sides, verdict compare. *)
let b12_fuzz_oracle =
  let o = Fuzz.Oracle.create Programs.basic_router in
  Test.make ~name:"B12 fuzz: one differential-oracle execution"
    (Staged.stage (fun () -> ignore (Fuzz.Oracle.execute o routed_probe)))

(* B12b: amortized cost of one oracle execution inside a batch of 64 —
   the batched hot path (direct injection, staged raw render, one quiesce
   per batch) that the fuzz campaign's shard windows ride. Gc-counted
   like B6a so the allocation profile is a pinned regression signal; the
   absolute gate enforces the <= 15 µs/exec acceptance floor. *)
let b12b_rows () =
  let o = Fuzz.Oracle.create Programs.basic_router in
  let batch = Array.make 64 routed_probe in
  ignore (Fuzz.Oracle.exec_batch o batch);
  (* warm: staged render compile, coverage tables *)
  let reps = 40 in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Fuzz.Oracle.exec_batch o batch)
  done;
  let n = float_of_int (reps * Array.length batch) in
  [
    ( "netdebug/B12b fuzz: amortized batched-oracle execution (batch 64)",
      Some ((Unix.gettimeofday () -. t0) *. 1e9 /. n),
      Some ((Gc.minor_words () -. w0) /. n) );
  ]

let b14w_name =
  "netdebug/B14w device: forward one packet, staged engine, minor words (Gc-counted)"

(* The rows the ratio gates read, timed interleaved: the bare B14 forward
   (B14w) and the hooks priced against it — full span sampling (B11), the
   fuzzer's coverage taps (B14c), the snapshot streamer (B15) and the
   network fabric (B16) — and the tree interpreter's forward, bare (B2)
   and with its coverage map (B2c). Bechamel times each test in its own
   window, and on a shared host the phases of those windows swing the
   ratio of two rows by ±30%, against the 0–10% overheads gated on them.
   Here the rows run round-robin, each round timing about 0.15 ms of
   every one on the monotonic clock, so a phase of the host hits them all
   alike, and each row keeps its best of 1 200 rounds. Allocation is the
   last round's, read from the Gc counters (bechamel's stabilized OLS
   reports 0.00 words for these, yet every forward allocates). *)
let interleaved_rows () =
  let rows =
    [|
      (b14w_name, 100, b14_forward);
      ("netdebug/B11 device: forward one packet, spans 1/1", 100, b11_forward_spans);
      ( "netdebug/B14c device: forward one packet, staged + coverage taps",
        100,
        b14c_forward_coverage );
      ("netdebug/B15 device: forward one packet, snapshot streamer", 100, b15_forward_streamed);
      ("netdebug/B16 fabric: forward one packet, co-simulated fabric", 100, b16_fabric_forward);
      ("netdebug/B2 interpreter: forward one packet", 16, b2_forward);
      ("netdebug/B2c interpreter: forward one packet, coverage map", 16, b2c_forward_coverage);
    |]
  in
  let run ops f =
    for _ = 1 to ops do
      f ()
    done
  in
  Array.iter (fun (_, ops, f) -> for _ = 1 to 30 do run ops f done) rows;
  let best = Array.make (Array.length rows) max_int in
  let words = Array.make (Array.length rows) 0.0 in
  for _ = 1 to 1_200 do
    Array.iteri
      (fun i (_, ops, f) ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        run ops f;
        best.(i) <- min best.(i) (now_ns () - t0);
        words.(i) <- (Gc.minor_words () -. w0) /. float_of_int ops)
      rows
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, ops, _) ->
         (name, Some (float_of_int best.(i) /. float_of_int ops), Some words.(i)))
       rows)

(* B18: one busy-window sample of the snapshot streamer — the full
   registry of a basic_router deployment after a 200-packet soak window,
   so every histogram has new samples to diff. Each sample starts on an
   empty minor heap and cannot fill it, so the major-heap words it
   reports (Gc counters, promotion excluded) were allocated there
   directly: the window diff and the JSON line must put none there.
   Returns the row (best-of-40 time, minor words) and the worst sample's
   major-heap words. *)
let b18_name = "netdebug/B18 sampler: one busy-window sample (Gc-counted)"

let b18_rows () =
  let h = Netdebug.Harness.deploy Programs.basic_router in
  let device = h.Netdebug.Harness.device in
  let sampler =
    Obs.Sampler.create ~sink:ignore (Device.metrics device) ~start_ns:(Device.now_ns device)
  in
  let sample () = Obs.Sampler.sample sampler ~now_ns:(Device.now_ns device) in
  let soak_window seed =
    ignore
      (Obs.Soak.run
         ~cfg:{ Obs.Soak.default_cfg with Obs.Soak.sk_budget = 200; sk_seed = seed }
         h)
  in
  soak_window 0;
  ignore (sample ());
  let best = ref infinity and minor = ref 0.0 and major = ref 0.0 in
  for seed = 1 to 40 do
    soak_window seed;
    Gc.minor ();
    let _, promoted0, major0 = Gc.counters () in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (sample ());
    let t = Unix.gettimeofday () -. t0 in
    let w1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    best := Float.min !best t;
    minor := Float.max !minor (w1 -. w0);
    major := Float.max !major (major1 -. major0 -. (promoted1 -. promoted0))
  done;
  Format.printf "B18 busy-window sample: %.0f ns, %.0f minor words, %.0f major-heap words@."
    (!best *. 1e9) !minor !major;
  ([ (b18_name, Some (!best *. 1e9), Some !minor) ], !major)

(* B13: wall-clock of one guided fuzz campaign. Not a bechamel test: a
   campaign is a multi-millisecond operation and the interesting numbers
   are wall-clock scaling and throughput, so it is timed directly with
   Unix.gettimeofday — Sys.time would report CPU time summed across
   domains and hide the speedup entirely.

   Two engines are exercised: the deterministic barrier engine only for
   its byte-identity contract (jobs=4 report == jobs=1 report), and the
   async sharded engine for the wall-clock rows CI's scaling gate reads.
   Async rows are best-of-3 (minima only ever remove scheduler noise)
   and carry the Gc-counted per-campaign allocation, so
   minor_words_per_op is a real regression signal rather than null. *)
let b13_budget = 10_000

let b13_rows () =
  let seed = 1 in
  let campaign ~deterministic ~jobs =
    Fuzz.Campaign.run ~jobs ~deterministic ~budget:b13_budget ~seed
      Programs.basic_router
  in
  let d1 = campaign ~deterministic:true ~jobs:1 in
  let d4 = campaign ~deterministic:true ~jobs:4 in
  if not (String.equal (Fuzz.Campaign.render d1) (Fuzz.Campaign.render d4)) then begin
    Format.eprintf "FAIL: B13 deterministic jobs=4 report differs from jobs=1@.";
    exit 1
  end;
  let measure jobs =
    let best_t = ref infinity and best_w = ref 0.0 and best_e = ref 1 in
    for _ = 1 to 3 do
      let w0 = Gc.minor_words () in
      let r = campaign ~deterministic:false ~jobs in
      let w = Gc.minor_words () -. w0 in
      if r.Fuzz.Campaign.rp_wall_s < !best_t then begin
        best_t := r.Fuzz.Campaign.rp_wall_s;
        best_w := w;
        best_e := max 1 r.Fuzz.Campaign.rp_total_executions
      end
    done;
    (!best_t, !best_w, !best_e)
  in
  let t1, w1, e1 = measure 1 in
  let t4, w4, e4 = measure 4 in
  Format.printf
    "B13 async campaign (%d execs): jobs=1 %.0f ms (%.0f execs/s), jobs=4 %.0f ms \
     (%.0f execs/s); deterministic reports identical@."
    b13_budget (t1 *. 1e3)
    (float_of_int e1 /. t1)
    (t4 *. 1e3)
    (float_of_int e4 /. t4);
  [
    ( Printf.sprintf "netdebug/B13 fuzz campaign (%d execs) wall-clock, jobs=1, async"
        b13_budget,
      Some (t1 *. 1e9),
      Some w1 );
    ( Printf.sprintf "netdebug/B13 fuzz campaign (%d execs) wall-clock, jobs=4, async"
        b13_budget,
      Some (t4 *. 1e9),
      Some w4 );
    ( "netdebug/B13a fuzz campaign amortized per exec, jobs=1, async",
      Some (t1 *. 1e9 /. float_of_int e1),
      Some (w1 /. float_of_int e1) );
    ( "netdebug/B13a fuzz campaign amortized per exec, jobs=4, async",
      Some (t4 *. 1e9 /. float_of_int e4),
      Some (w4 /. float_of_int e4) );
  ]

(* B6a: exact minor-heap allocation of one symbolic exploration, measured
   with the Gc counters — bechamel's stabilized OLS reports ~0 words for
   this op (see the committed baselines), so the allocation regression
   gate needs its own row. Allocation per explore is deterministic;
   averaging over the loop removes only the Gc.minor_words call itself.
   The absolute gate pins the hashconsed-term/in-place-fork profile
   (~5.5k words, down from 7.3k before interning) with headroom. *)
let b6a_rows () =
  let rt = Runtime.create () in
  let () =
    match
      Runtime.install_all Programs.basic_router.Programs.program rt
        Programs.basic_router.Programs.entries
    with
    | Ok () -> ()
    | Error e -> failwith e
  in
  let explore () =
    ignore (Symexec.Sexec.explore Programs.basic_router.Programs.program rt)
  in
  explore ();
  (* warm: interner tables, solver side tables *)
  let n = 200 in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    explore ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n in
  [ ("netdebug/B6a symexec: explore minor words (Gc-counted)", Some ns, Some words) ]

let tests =
  Test.make_grouped ~name:"netdebug"
    [
      b3_generator; b4_checker_rule; b6_symexec; b7_compile; b8_checksum; b9_kv_get;
      b10_wire_roundtrip; b11b_device_forward_spans_sampled; b12_fuzz_oracle;
      b14_device_forward_staged; b17_testgen;
    ]

(* The match-structure rows are grouped apart because they need a different
   measurement config: they pin 100MB+ of route table in the major heap,
   and bechamel's GC stabilization compacts the heap between samples, so
   every sample restarts cache- and TLB-cold and the cold-start cost lands
   in the per-run OLS slope — an 8 µs phantom on a ~400 ns lookup. These
   rows allocate nothing per operation (the absolute gate enforces it), so
   stabilization buys them nothing: they are measured unstabilized. *)
let match_tests =
  Test.make_grouped ~name:"netdebug"
    [ b5_lpm_lookup; b5s_lpm_scan; b5b_lpm_65k; b5c_lpm_1m ]

(* per-operation estimate of one measure for one test, if the OLS converged *)
let estimate merged label name =
  match Hashtbl.find_opt merged label with
  | None -> None
  | Some per_test -> (
      match Hashtbl.find_opt per_test name with
      | None -> None
      | Some ols -> (
          match Analyze.OLS.estimates ols with Some [ v ] -> Some v | Some _ | None -> None))

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json file rows =
  let oc = open_out file in
  let num = function None -> "null" | Some v -> Printf.sprintf "%.2f" v in
  output_string oc "[\n";
  List.iteri
    (fun i (name, ns, allocs) ->
      Printf.fprintf oc "  {\"name\": \"%s\", \"ns_per_op\": %s, \"minor_words_per_op\": %s}%s\n"
        (json_escape name) (num ns) (num allocs)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "]\n";
  close_out oc;
  Format.printf "microbench results written to %s@." file

(* Instrumentation-overhead regression gate: every hook that rides the
   packet hot path — full span sampling (B11), the spec-side coverage map
   (B2c) and the snapshot streamer (B15) — must stay within [max_ratio]
   of its uninstrumented baseline; the device hooks against the bare
   forward they were timed interleaved with (B14w). Exact-name lookup. *)
let overhead_pairs =
  [
    ("netdebug/B11 device: forward one packet, spans 1/1", b14w_name, None, "B11/B14w");
    ( "netdebug/B2c interpreter: forward one packet, coverage map",
      "netdebug/B2 interpreter: forward one packet",
      None,
      "B2c/B2" );
    ( "netdebug/B15 device: forward one packet, snapshot streamer",
      b14w_name,
      None,
      "B15/B14w" );
    (* the network fabric's per-hop cost over the bare staged device it
       schedules (B16 wraps exactly one B14-style forward) *)
    ( "netdebug/B16 fabric: forward one packet, co-simulated fabric",
      b14w_name,
      Some 1.15,
      "B16/B14w" );
  ]

(* Speedup assertions: the staged engine must actually be faster, not just
   not-slower. A staged device forward (B14w) has to come in at or below
   half the tree interpreter's per-packet cost (B2) — in practice it is
   far below, but 0.5 keeps the gate robust to noisy CI hosts. *)
let speedup_pairs =
  [
    (b14w_name, "netdebug/B2 interpreter: forward one packet", 0.5, "B14w/B2");
    (* the coverage-tap cost is absolute (outcome materialization + edge
       hashing) while the staged baseline is small, so a B14c/B14 *ratio*
       gate swings wildly with host noise.
       Gate the instrumented staged path against the tree interpreter
       instead: staged-with-taps must still clearly beat bare tree. *)
    ( "netdebug/B14c device: forward one packet, staged + coverage taps",
      "netdebug/B2 interpreter: forward one packet",
      0.9,
      "B14c/B2" );
  ]

(* Absolute floors for the match structures (ISSUE: production-scale
   tables). B5's 4283 ns ceiling is 0.25x the last committed linear-scan
   baseline (17133 ns in BENCH_micro.json) — the classifier must be at
   least 4x faster on the same 1024-prefix workload. B5c pins the
   full-feed promise: under a million installed prefixes a lookup stays
   below a microsecond and allocates nothing on the hot path. *)
let absolute_gates =
  [
    ("netdebug/B5 lpm: select over 1024 entries", 4283.0, None, "B5 <= 0.25x scan baseline");
    ( "netdebug/B5c lpm: 1,048,576-prefix table, one lookup",
      1000.0,
      Some 0.5,
      "B5c 1M-prefix lookup" );
    (* symexec allocation pin (ISSUE 9): interned terms + in-place forks
       put one explore at ~5.5k minor words; 6500 is headroom, a revert
       to the pre-interning profile (7.3k) trips it. The ns ceiling is
       deliberately loose — the words number is the regression signal. *)
    ( "netdebug/B6a symexec: explore minor words (Gc-counted)",
      150_000.0,
      Some 6_500.0,
      "B6a explore allocation" );
    (* the full oracle pipeline must stay cheap enough to run per commit:
       8 paths well under 20 ms keeps `testgen --check` a sub-second CI
       smoke even with the device sweep on top *)
    ( "netdebug/B17 testgen: path-covering vectors for basic_router",
      20_000_000.0,
      None,
      "B17 full testgen" );
    (* batched-oracle amortized floor (ISSUE 10): one differential
       execution inside a batch of 64 stays under 15 µs — about a third
       of the per-exec management-protocol path (B12), and the budget the
       async campaign's line-rate throughput is built on. Measured at
       ~6 µs / ~700 minor words after the staged raw render; the words
       ceiling pins that allocation profile with headroom. *)
    ( "netdebug/B12b fuzz: amortized batched-oracle execution (batch 64)",
      15_000.0,
      Some 1_000.0,
      "B12b batched oracle exec" );
    (* Gc-counted bare forward: unboxed counter and histogram cells and no
       per-packet event records put it at ~162 words; the ceiling trips if
       a per-packet record comes back *)
    (b14w_name, 10_000.0, Some 180.0, "B14w staged forward allocation");
    (* a busy window's sample: ~34 µs and ~6.3k minor words with
       span-stored histograms and a reused line buffer, against ~117 µs
       and ~8.3k words (plus ~14.6k major-heap words) with dense bins *)
    (b18_name, 80_000.0, Some 7_500.0, "B18 busy-window sample");
  ]

(* Evaluate every gate pair; returns false on any violation. [quiet]
   suppresses the per-pair report (used for the provisional first pass —
   see [run]: a tripped gate triggers one re-measurement and a second
   evaluation on per-benchmark minima, since on a noisy 1-core host a
   single OLS estimate can swing tens of percent in either direction and
   min-of-two only ever removes noise, never a real regression). *)
let check_overhead_gate ?(max_ratio = 1.10) ?(quiet = false) ?(scaling = false) rows =
  let find name = List.find_opt (fun (n, _, _) -> String.equal n name) rows in
  let failed = ref false in
  List.iter
    (fun (instrumented, baseline, limit, label) ->
      let limit = Option.value limit ~default:max_ratio in
      match (find instrumented, find baseline) with
      | Some (_, Some cost, _), Some (_, Some base, _) when base > 0.0 ->
          let ratio = cost /. base in
          if not quiet then
            Format.printf "overhead gate: %s = %.3f (limit %.2f)@." label ratio limit;
          if ratio > limit then begin
            if not quiet then
              Format.eprintf "FAIL: %s costs %.1f%% over baseline (limit %.0f%%)@." label
                ((ratio -. 1.0) *. 100.0)
                ((limit -. 1.0) *. 100.0);
            failed := true
          end
      | _ ->
          if not quiet then
            Format.eprintf "FAIL: overhead gate needs %s and %s estimates in the results@."
              instrumented baseline;
          failed := true)
    overhead_pairs;
  List.iter
    (fun (fast, slow, limit, label) ->
      match (find fast, find slow) with
      | Some (_, Some cost, _), Some (_, Some base, _) when base > 0.0 ->
          let ratio = cost /. base in
          if not quiet then
            Format.printf "speedup gate: %s = %.3f (limit %.2f)@." label ratio limit;
          if ratio > limit then begin
            if not quiet then
              Format.eprintf "FAIL: %s = %.3f exceeds %.2f (staged engine not fast enough)@."
                label ratio limit;
            failed := true
          end
      | _ ->
          if not quiet then
            Format.eprintf "FAIL: speedup gate needs %s and %s estimates in the results@."
              fast slow;
          failed := true)
    speedup_pairs;
  List.iter
    (fun (name, ns_limit, words_limit, label) ->
      match find name with
      | Some (_, Some ns, words) ->
          if not quiet then
            Format.printf "absolute gate: %s = %.1f ns (limit %.0f)@." label ns ns_limit;
          if ns > ns_limit then begin
            if not quiet then
              Format.eprintf "FAIL: %s costs %.1f ns (limit %.0f ns)@." label ns ns_limit;
            failed := true
          end;
          (match (words_limit, words) with
          | Some wl, Some w ->
              if not quiet then
                Format.printf "absolute gate: %s = %.2f minor words/op (limit %.2f)@." label w
                  wl;
              if w > wl then begin
                if not quiet then
                  Format.eprintf "FAIL: %s allocates %.2f minor words/op (limit %.2f)@." label
                    w wl;
                failed := true
              end
          | Some _, None ->
              if not quiet then
                Format.eprintf "FAIL: absolute gate %s needs a minor-words estimate@." label;
              failed := true
          | None, _ -> ())
      | _ ->
          if not quiet then
            Format.eprintf "FAIL: absolute gate needs a %s estimate in the results@." name;
          failed := true)
    absolute_gates;
  (* B13 async scaling gates (evaluated only on the final row set, which
     includes the campaign wall-clock rows). On a host with >= 4 cores,
     async jobs=4 must cut wall-clock to <= 0.6x of jobs=1 — failing
     that means the sharded engine stopped scaling. On narrower hosts
     (the 1-core dev container) a parallel speedup is physically
     impossible — four domains time-slice one core and synchronize every
     minor GC — so the gate degrades to an anti-scaling guard: measured
     ~1.5x there, 1.9 is headroom, and the pre-async barrier engine's
     >2.1x would trip it. The throughput floor (>= 100k execs/s, i.e.
     <= 10 µs amortized) applies to the best configuration the host can
     actually scale to: jobs=4 with >= 4 cores, jobs=1 otherwise. *)
  if scaling then begin
    let cores = Domain.recommended_domain_count () in
    let wall jobs =
      Printf.sprintf "netdebug/B13 fuzz campaign (%d execs) wall-clock, jobs=%d, async"
        b13_budget jobs
    in
    (match (find (wall 1), find (wall 4)) with
    | Some (_, Some t1, _), Some (_, Some t4, _) when t1 > 0.0 ->
        let ratio = t4 /. t1 in
        let limit = if cores >= 4 then 0.6 else 1.9 in
        if not quiet then
          Format.printf "scaling gate: B13 async jobs=4/jobs=1 = %.3f (limit %.2f, %d core(s))@."
            ratio limit cores;
        if ratio > limit then begin
          if not quiet then
            Format.eprintf "FAIL: B13 async jobs=4 wall-clock is %.2fx jobs=1 (limit %.2fx)@."
              ratio limit;
          failed := true
        end
    | _ ->
        if not quiet then
          Format.eprintf "FAIL: scaling gate needs both B13 async wall-clock rows@.";
        failed := true);
    let floor_jobs = if cores >= 4 then 4 else 1 in
    let floor_row =
      Printf.sprintf "netdebug/B13a fuzz campaign amortized per exec, jobs=%d, async"
        floor_jobs
    in
    match find floor_row with
    | Some (_, Some ns, _) ->
        if not quiet then
          Format.printf "scaling gate: async jobs=%d = %.0f ns/exec (floor 10000, >= 100k execs/s)@."
            floor_jobs ns;
        if ns > 10_000.0 then begin
          if not quiet then
            Format.eprintf "FAIL: async jobs=%d runs at %.0f ns/exec — under 100k execs/s@."
              floor_jobs ns;
          failed := true
        end
    | _ ->
        if not quiet then
          Format.eprintf "FAIL: scaling gate needs the %s row@." floor_row;
        failed := true
  end;
  not !failed

let measure_group cfg tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let names =
    match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
    | Some per_test -> Hashtbl.fold (fun name _ acc -> name :: acc) per_test [] |> List.sort String.compare
    | None -> []
  in
  List.map
    (fun name ->
      ( name,
        estimate merged (Measure.label Instance.monotonic_clock) name,
        estimate merged (Measure.label Instance.minor_allocated) name ))
    names

let measure_once () =
  let stab = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let nostab = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (measure_group stab tests @ measure_group nostab match_tests)

let opt_min a b =
  match (a, b) with
  | Some x, Some y -> Some (Float.min x y)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

(* B18's heap gate: a sample must allocate nothing directly in the major
   heap — dense 1 024-bin copies put ~14.6k words a window there *)
let heap_gate major =
  Format.printf "heap gate: B18 major-heap words = %.0f (limit 0)@." major;
  if major > 0.0 then
    Format.eprintf "FAIL: B18 busy-window sample allocates %.0f words in the major heap@."
      major;
  major = 0.0

let run ?json ?(check_overhead = false) () =
  Format.printf "@.==== Microbenchmarks (Bechamel) ====@.@.";
  let b18, b18_major = b18_rows () in
  let bench_rows =
    measure_once () @ b6a_rows () @ b12b_rows () @ interleaved_rows () @ b18
  in
  let bench_rows =
    if check_overhead && not (check_overhead_gate ~quiet:true bench_rows) then begin
      Format.printf
        "overhead gate tripped on first pass; re-measuring and gating on per-benchmark minima@.";
      let again = measure_once () @ interleaved_rows () in
      List.map
        (fun (name, ns, allocs) ->
          match List.find_opt (fun (n, _, _) -> String.equal n name) again with
          | Some (_, ns', allocs') -> (name, opt_min ns ns', opt_min allocs allocs')
          | None -> (name, ns, allocs))
        bench_rows
    end
    else bench_rows
  in
  let rows = bench_rows @ b13_rows () in
  let table = Stats.Texttable.create [ "benchmark"; "ns/op"; "minor w/op" ] in
  List.iter
    (fun (name, ns, allocs) ->
      let cell = function Some v -> Printf.sprintf "%.1f" v | None -> "n/a" in
      Stats.Texttable.add_row table [ name; cell ns; cell allocs ])
    rows;
  Format.printf "%s@." (Stats.Texttable.render table);
  (match json with None -> () | Some file -> write_json file rows);
  if check_overhead then begin
    let gates_ok = check_overhead_gate ~scaling:true rows in
    if not (heap_gate b18_major && gates_ok) then exit 1
  end
