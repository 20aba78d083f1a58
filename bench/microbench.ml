(* Microbenchmarks: one row per cost table in EXPERIMENTS.md (B2-B20).
   Every row is timed by [interleaved_rows]: one loop, one clock, and
   allocation read from the Gc counters of every domain the row runs on. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

module Programs = P4ir.Programs
module Runtime = P4ir.Runtime
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Device = Target.Device

let routed_probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ())
let basic_router = Programs.basic_router.Programs.program

let install_routes rt =
  match Runtime.install_all basic_router rt Programs.basic_router.Programs.entries with
  | Ok () -> ()
  | Error e -> failwith e

let router_runtime () =
  let rt = Runtime.create () in
  install_routes rt;
  rt

(* A row times [calls] calls of [run] per round; each call returns the
   operations it performed (a batch or a campaign performs many).
   [setup] runs before each round, untimed. *)
type row = { name : string; calls : int; setup : unit -> unit; run : unit -> int }

let row ?(setup = ignore) name calls f = { name; calls; setup; run = (fun () -> f (); 1) }

type result = {
  r_name : string;
  ns_best : float;  (* fastest round, per op *)
  ns_mean : float;  (* all rounds with their garbage collection, per op *)
  words : float;  (* minor words per op, every domain *)
  major : float;  (* worst round's words allocated directly in the major heap *)
}

(* Right after a minor collection, which stops every domain: the minor
   words of all domains, those that have exited (a campaign's joined pool
   workers) included, and the words this domain allocated directly in
   the major heap. [Gc.minor_words] would count this domain alone, and
   [Gc.quick_stat]'s major count lags until the next major slice, so the
   latter comes from [Gc.counters], which is live. *)
let gc_read () =
  let _, promoted, major = Gc.counters () in
  ((Gc.quick_stat ()).Gc.minor_words, major -. promoted)

(* the words one [gc_read] adds to the next *)
let read_words =
  Gc.minor ();
  let w0, _ = gc_read () in
  Gc.minor ();
  fst (gc_read ()) -. w0

(* The one timing method. Rows run round-robin, so a phase of a shared
   host hits every row of a group alike. A round times [calls] calls of
   one row on the monotonic clock; it starts on an empty minor heap and
   ends with a forced minor collection. [ns_best] is the fastest round
   without that collection; [ns_mean] bills each round its collection,
   so it includes the GC a long run pays. The first [rounds / 40]
   rounds, at least one, warm up and are not counted. *)
let interleaved_rows ~rounds rows =
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let best = Array.make n infinity and total = Array.make n 0.0 and ops = Array.make n 0 in
  let words = Array.make n 0.0 and major = Array.make n 0.0 in
  let warm = max 1 (rounds / 40) in
  for round = 1 to warm + rounds do
    Array.iteri
      (fun i r ->
        r.setup ();
        Gc.minor ();
        let w0, d0 = gc_read () in
        let t0 = now_ns () in
        let k = ref 0 in
        for _ = 1 to r.calls do
          k := !k + r.run ()
        done;
        let t1 = now_ns () in
        Gc.minor ();
        let t2 = now_ns () in
        let w1, d1 = gc_read () in
        if round > warm then begin
          best.(i) <- Float.min best.(i) (float_of_int (t1 - t0) /. float_of_int !k);
          total.(i) <- total.(i) +. float_of_int (t2 - t0);
          ops.(i) <- ops.(i) + !k;
          words.(i) <- words.(i) +. w1 -. w0 -. read_words;
          major.(i) <- Float.max major.(i) (d1 -. d0)
        end)
      rows
  done;
  List.init n (fun i ->
      let ops = float_of_int ops.(i) in
      {
        r_name = rows.(i).name;
        ns_best = best.(i);
        ns_mean = total.(i) /. ops;
        words = words.(i) /. ops;
        major = major.(i);
      })

(* Row names the gates read. *)
let b2 = "netdebug/B2 interpreter: forward one packet"
let b2c = "netdebug/B2c interpreter: forward one packet, coverage map"
let b5 = "netdebug/B5 lpm: select over 1024 entries"
let b5c = "netdebug/B5c lpm: 1,048,576-prefix table, one lookup"
let b6a = "netdebug/B6a symexec: explore minor words (Gc-counted)"
let b11 = "netdebug/B11 device: forward one packet, spans 1/1"
let b12b = "netdebug/B12b fuzz: amortized batched-oracle execution (batch 64)"
let b14c = "netdebug/B14c device: forward one packet, staged + coverage taps"
let b14w = "netdebug/B14w device: forward one packet, staged engine, minor words (Gc-counted)"
let b15 = "netdebug/B15 device: forward one packet, snapshot streamer"
let b16 = "netdebug/B16 fabric: forward one packet, co-simulated fabric"
let b17 = "netdebug/B17 testgen: path-covering vectors for basic_router"
let b18 = "netdebug/B18 sampler: one busy-window sample (Gc-counted)"
let b19 = "netdebug/B19 net route: predict one fat-tree:6 pair's path (Gc-counted)"
let b20 = "netdebug/B20 testgen: path-covering vectors for acl_firewall (Gc-counted)"
let b13a jobs = Printf.sprintf "netdebug/B13a fuzz campaign amortized per exec, jobs=%d" jobs

(* A basic_router device with its routes installed. *)
let make_device () =
  let report = Compile.compile_exn ~quirks:Quirks.none basic_router in
  let d = Device.create report.Compile.pipeline in
  install_routes (Device.runtime d);
  d

(* One routed-probe forward through [d]. *)
let forward d () = ignore (Device.inject d ~source:(Device.External 0) routed_probe)

let device_row ?(spans = 64) name f =
  let d = make_device () in
  Device.set_span_sampling d spans;
  row name 100 (f d)

(* The rows the ratio gates read: the bare staged forward (B14w) and the
   hooks priced against it — full span sampling (B11), the fuzzer's
   coverage taps (B14c), the snapshot streamer (B15) and the network
   fabric (B16) — and the tree interpreter's forward, bare (B2) and with
   its coverage map (B2c). Their 0–10% limits need them in one group. *)
let ratio_rows () =
  let interp_forward () =
    let rt = router_runtime () in
    fun () -> P4ir.Interp.process ~engine:`Tree basic_router rt ~ingress_port:0 routed_probe
  in
  (* B15: a full registry sample lands every ~10 packets at a 5 µs
     virtual window, so the row prices continuous streaming amortized, not
     just the one-compare fast path; lines go to a discarding sink *)
  let streamed d =
    let s =
      Obs.Sampler.create ~interval_ns:5_000. ~sink:ignore (Device.metrics d)
        ~start_ns:(Device.now_ns d)
    in
    fun () ->
      forward d ();
      ignore (Obs.Sampler.tick s ~now_ns:(Device.now_ns d))
  in
  (* B16: a single switch between two hosts, so one op is exactly one
     staged device traversal plus the fabric's event heap, probe
     bookkeeping, trail and delivery accounting *)
  let fabric_forward () =
    let topo = Net.Topology.single ~hosts:2 () in
    let fab = Net.Fabric.create topo in
    let src = topo.Net.Topology.hosts.(0) in
    let bits = Net.Fleet.probe_bits ~payload_bytes:26 src topo.Net.Topology.hosts.(1) in
    fun () ->
      Net.Fabric.clear_probes fab;
      let id = Net.Fabric.send fab ~src bits in
      Net.Fabric.run fab;
      ignore (Net.Fabric.fate fab id)
  in
  [
    device_row b14w forward;
    device_row ~spans:1 b11 forward;
    device_row b14c (fun d ->
        Fuzz.Coverage.attach_device (Fuzz.Coverage.create ()) d;
        forward d);
    device_row b15 streamed;
    row b16 100 (fabric_forward ());
    row b2 16 (let f = interp_forward () in fun () -> ignore (f ()));
    row b2c 16
      (let f = interp_forward () in
       let cov = Fuzz.Coverage.create () in
       fun () -> Fuzz.Coverage.record_spec cov (f ()));
  ]

(* B5/B5b/B5c: first-match lookup through [Runtime.lookup]'s classifier on
   synthetic BGP-like tables of 1024, 65k and 1M prefixes; B5s keeps the
   legacy linear scan over the 1024-prefix table as the reference. Keys
   are prebuilt and cycled, so a lookup allocates nothing. *)
let cycle_keys prefixes lookup =
  let keys =
    Array.map Routes.key_of_addr (Routes.lookup_addrs ~seed:7 ~hit_ratio:900 prefixes ~n:4096)
  in
  let i = ref 0 in
  fun () ->
    let k = keys.(!i) in
    i := (!i + 1) land (Array.length keys - 1);
    lookup k

let b5_table n =
  let rt = Runtime.create () in
  let prefixes = Routes.prefixes ~seed:7 ~n in
  Array.iter
    (fun (addr, len) ->
      Runtime.add_exn Routes.program rt ~table:Routes.table_name (Routes.entry ~addr ~len))
    prefixes;
  cycle_keys prefixes (fun k ->
      ignore (Runtime.lookup rt ~table:Routes.table_name ~degrade_ternary_to_exact:false k))

(* Every other sub-millisecond row. *)
let other_rows () =
  let ok = function Ok v -> v | Error e -> failwith e in
  let h = Netdebug.Harness.deploy ~quirks:Quirks.none Programs.basic_router in
  let ctl = h.Netdebug.Harness.controller in
  ok (Netdebug.Controller.configure_checker ctl []);
  let stream =
    Netdebug.Controller.stream
      ~mutations:[ Netdebug.Wire.Sweep_field ("ipv4", "dst", 0x0A000001L, 1L) ]
      routed_probe
  in
  let ctx =
    P4ir.Exec.make_ctx ~env:(P4ir.Env.create basic_router) ~runtime:(Runtime.create ()) ()
  in
  ignore (P4ir.Parse.run ~hooks:P4ir.Parse.lenient_hooks ctx routed_probe);
  let rule = P4ir.Dsl.(fld "ipv4" "ttl" ==: const ~width:8 64) in
  let scan =
    let prefixes = Routes.prefixes ~seed:7 ~n:1024 in
    let entries = Array.to_list (Array.map (fun (addr, len) -> Routes.entry ~addr ~len) prefixes) in
    cycle_keys prefixes (fun k -> ignore (P4ir.Entry.select entries k))
  in
  let rt = router_runtime () in
  let payload = String.make 1500 'x' in
  let kv =
    let report = Compile.compile_exn ~quirks:Quirks.none Programs.kv_cache.Programs.program in
    Device.create report.Compile.pipeline
  in
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
  let checker_config =
    Netdebug.Wire.Configure_checker
      [
        {
          Netdebug.Wire.r_name = "r";
          r_filter = Some P4ir.Dsl.(fld "ipv4" "ttl" ==: const ~width:8 63);
          r_expect = P4ir.Dsl.(P4ir.Ast.Std P4ir.Ast.Egress_spec ==: const ~width:9 1);
        };
      ]
  in
  let oracle = Fuzz.Oracle.create Programs.basic_router in
  (* B19: the path a fleet pair's probe must take, read from a fat-tree:6
     route table; one round cycles every ordered pair of distinct edge
     switches *)
  let route_pairs, route_walk =
    let topo = Net.Topology.fat_tree 6 in
    let routes = Net.Route.create topo in
    let edges =
      List.map (fun (n : Net.Topology.node) -> n.Net.Topology.n_id) (Net.Topology.edges topo)
    in
    let pairs =
      List.concat_map
        (fun s -> List.filter_map (fun d -> if s = d then None else Some (s, d)) edges)
        edges
      |> Array.of_list
    in
    let i = ref 0 in
    ( Array.length pairs,
      fun () ->
        let src_edge, dst_edge = pairs.(!i) in
        i := (!i + 1) mod Array.length pairs;
        ignore (Net.Route.route routes ~src_edge ~dst_edge) )
  in
  [
    row "netdebug/B3 generator: render+inject one mutated packet" 12 (fun () ->
        ok (Netdebug.Controller.configure_generator ctl [ stream ]);
        ok (Netdebug.Controller.start_generator ctl));
    row "netdebug/B4 checker: evaluate one rule" 1000 (fun () -> ignore (P4ir.Exec.eval ctx rule));
    row b5 500 (b5_table 1024);
    row "netdebug/B5s lpm: legacy linear scan over 1024 entries" 12 scan;
    row b6a 4 (fun () -> ignore (Symexec.Sexec.explore basic_router rt));
    row "netdebug/B7 sdnet: compile basic_router" 16 (fun () ->
        ignore (Compile.compile_exn basic_router));
    row "netdebug/B8 checksum: 1500B internet checksum" 64 (fun () ->
        ignore (Bitutil.Checksum.checksum payload));
    row "netdebug/B9 kv_cache device: one GET" 100 (fun () ->
        ignore (Device.inject kv ~source:(Device.External 0) kv_get));
    row "netdebug/B10 wire: encode+decode a checker config" 64 (fun () ->
        match Netdebug.Wire.decode_host (Netdebug.Wire.encode_host checker_config) with
        | Ok _ -> ()
        | Error e -> failwith e);
    device_row "netdebug/B11b device: forward one packet, spans 1/64" forward;
    (* one differential-oracle execution outside a batch window: the
       generator's raw shot in a one-element window, quiesce included *)
    row "netdebug/B12 fuzz: one differential-oracle execution" 8 (fun () ->
        ignore (Fuzz.Oracle.execute oracle routed_probe));
    row b19 route_pairs route_walk;
  ]

(* B5b/B5c pin 100 MB+ of route table, so they form a group of their own. *)
let big_table_rows () =
  [
    row "netdebug/B5b lpm: 65,536-prefix table, one lookup" 500 (b5_table 65_536);
    row b5c 500 (b5_table 1_048_576);
  ]

(* B17: the full test-oracle pipeline on basic_router — path exploration,
   adversarial witness hardening, per-path solving and expectation
   derivation for all 8 paths. *)
let b17_row () =
  let rt = router_runtime () in
  row b17 1 (fun () ->
      ignore
        (Symexec.Testgen.generate ~ingress_port:Netdebug.Harness.generator_port basic_router rt))

(* B20: the same pipeline on acl_firewall, whose hardened solves exceed
   the systematic walk's budget and run the random phase. *)
let b20_row () =
  let b = Programs.acl_firewall in
  let rt = Netdebug.Usecases.Functional.oracle_runtime b in
  row b20 1 (fun () ->
      ignore
        (Symexec.Testgen.generate ~ingress_port:Netdebug.Harness.generator_port
           b.Programs.program rt))

(* B12b: one oracle execution amortized inside a batch of 64 — direct
   injection, staged raw render, one quiesce per batch: the hot path the
   fuzz campaign's shard windows ride. *)
let b12b_row () =
  let o = Fuzz.Oracle.create Programs.basic_router in
  let batch = Array.make 64 routed_probe in
  { name = b12b; calls = 1; setup = ignore;
    run = (fun () -> ignore (Fuzz.Oracle.exec_batch o batch); Array.length batch) }

(* B18: one busy-window sample of the snapshot streamer — the full
   registry of a basic_router deployment after a 200-packet soak window
   (the untimed setup), so every histogram has new samples to diff. The
   heap gate reads the words each round allocates directly in the major
   heap. *)
let b18_row () =
  let h = Netdebug.Harness.deploy Programs.basic_router in
  let device = h.Netdebug.Harness.device in
  let sampler =
    Obs.Sampler.create ~sink:ignore (Device.metrics device) ~start_ns:(Device.now_ns device)
  in
  let seed = ref 0 in
  let soak_window () =
    incr seed;
    ignore
      (Obs.Soak.run ~cfg:{ Obs.Soak.default_cfg with Obs.Soak.sk_budget = 200; sk_seed = !seed } h)
  in
  row ~setup:soak_window b18 1 (fun () ->
      ignore (Obs.Sampler.sample sampler ~now_ns:(Device.now_ns device)))

(* Groups in run order, with their round counts. The multi-millisecond
   rows each run alone, so no row is billed another's GC debt; B18's 40
   rounds are its 40 major-heap checks. *)
let groups =
  [
    (40, fun () -> [ b18_row () ]);
    (1_200, ratio_rows);
    (1_200, other_rows);
    (40, fun () -> [ b12b_row () ]);
    (40, fun () -> [ b17_row () ]);
    (40, fun () -> [ b20_row () ]);
    (1_200, big_table_rows);
  ]

(* Each group starts on a compacted heap, so no group pays to collect
   the tables or garbage an earlier one left. *)
let measure (rounds, rows) =
  Gc.compact ();
  interleaved_rows ~rounds (rows ())

(* B13: whole guided fuzz campaigns (10 000 execs), each jobs value alone,
   best of 3 rounds, reported per exec. A round times the whole
   [Campaign.run] call, so it includes joining the pool's worker domains,
   which the campaign's own wall clock leaves out: 1–20 ms of a jobs=4
   campaign on a 2-core host. It first asserts that the campaign renders
   byte-identically at jobs=1 and jobs=4; the timed rows feed the
   scaling gates. *)
let b13_budget = 10_000

let b13_rows () =
  let campaign ~jobs =
    Fuzz.Campaign.run ~jobs ~budget:b13_budget ~seed:1 Programs.basic_router
  in
  let render jobs = Fuzz.Campaign.render (campaign ~jobs) in
  if not (String.equal (render 1) (render 4)) then begin
    Format.eprintf "FAIL: B13 jobs=4 report differs from jobs=1@.";
    exit 1
  end;
  let rows =
    List.concat_map
      (fun jobs ->
        measure
          ( 3,
            fun () ->
              [
                { name = b13a jobs; calls = 1; setup = ignore;
                  run = (fun () ->
                    (campaign ~jobs).Fuzz.Campaign.rp_total_executions) };
              ] ))
      [ 1; 4 ]
  in
  Format.printf
    "B13 campaign (%d execs): jobs=1 %.0f execs/s, jobs=4 %.0f execs/s (best rounds); \
     reports identical@."
    b13_budget
    (1e9 /. (List.nth rows 0).ns_best)
    (1e9 /. (List.nth rows 1).ns_best);
  rows

(* Ratio gates, read on best-of-rounds. Overhead: every hook that rides
   the packet hot path stays within its limit of the baseline it shares a
   group with. *)
let overhead_pairs =
  [
    (b11, b14w, 1.10, "B11/B14w");
    (b2c, b2, 1.10, "B2c/B2");
    (b15, b14w, 1.10, "B15/B14w");
    (* the fabric's per-hop cost over the bare staged device it
       schedules (B16 wraps exactly one B14w-style forward) *)
    (b16, b14w, 1.15, "B16/B14w");
  ]

(* Speedup: the staged engine must actually be faster, not just
   not-slower. A staged forward has to come in at or below half the tree
   interpreter's per-packet cost — in practice it is far below, but 0.5
   keeps the gate robust to noisy hosts. The coverage-tap cost is
   absolute (outcome materialization + edge hashing) while the staged
   baseline is small, so a B14c/B14w ratio swings with host noise; the
   instrumented staged path is gated against the bare tree instead. *)
let speedup_pairs = [ (b14w, b2, 0.5, "B14w/B2"); (b14c, b2, 0.9, "B14c/B2") ]

(* Absolute gates: the statistic read, ns ceiling, optional words ceiling. *)
let absolute_gates =
  [
    (* B5's ceiling is 0.25x the last committed linear-scan baseline
       (17133 ns): the classifier must be at least 4x faster on the same
       1024-prefix workload *)
    (b5, `Mean, 4283.0, None, "B5 <= 0.25x scan baseline");
    (* the full-feed promise: under a million installed prefixes a lookup
       stays below a microsecond and allocates nothing *)
    (b5c, `Mean, 1000.0, Some 0.5, "B5c 1M-prefix lookup");
    (* interned terms + in-place forks put one explore at ~5.5k minor
       words; a revert to the pre-interning profile (7.3k) trips 6500.
       The ns ceiling is deliberately loose — the words are the signal *)
    (b6a, `Mean, 150_000.0, Some 6_500.0, "B6a explore allocation");
    (* 8 paths well under 20 ms keeps `testgen --check` a sub-second CI
       smoke even with the device sweep on top. Every basic_router path
       is found by the systematic walk, whose compiled checks allocate
       nothing (~35k words in all); re-evaluating each candidate leaf
       through boxed values (1.44M) trips the words ceiling *)
    (b17, `Mean, 20_000_000.0, Some 100_000.0, "B17 full testgen");
    (* acl_firewall's hardened solves run the random phase: a try stops
       at its first failing constraint and skips its remaining draws
       (~5–6 ms, ~2.1M words); drawing every variable and re-evaluating
       each try through boxed values (~49 ms, 11.3M words) trips both *)
    (b20, `Mean, 40_000_000.0, Some 3_000_000.0, "B20 acl_firewall testgen");
    (* one execution inside a batch of 64 stays under 15 µs, the budget
       the campaign's throughput is built on; the words ceiling
       pins the staged raw render's allocation profile *)
    (b12b, `Mean, 15_000.0, Some 1_000.0, "B12b batched oracle exec");
    (* unboxed counter and histogram cells and no per-packet event
       records put a forward at ~162 words; the ceiling trips if a
       per-packet record comes back *)
    (b14w, `Best, 10_000.0, Some 180.0, "B14w staged forward allocation");
    (* a busy window's sample: ~34 µs and ~6.3k minor words with
       span-stored histograms and a reused line buffer, against ~117 µs
       and ~8.3k words with dense bins *)
    (b18, `Best, 80_000.0, Some 7_500.0, "B18 busy-window sample");
    (* a walk of the route table allocates the path list (~21 words);
       a per-call BFS reads ~19k words and tens of µs. The ns ceiling is
       loose — the words are the signal *)
    (b19, `Mean, 2_000.0, Some 64.0, "B19 route walk");
  ]

let stat_name = function `Best -> "best" | `Mean -> "mean"

(* Evaluate every gate; returns the names of the rows whose gates
   tripped. [quiet] suppresses the report on the provisional first pass
   (see [run]). *)
let check_gates ?(quiet = false) rows =
  let tripped = ref [] in
  let find name = List.find_opt (fun r -> String.equal r.r_name name) rows in
  let gate read kind label value limit =
    if not quiet then Format.printf "%s gate: %s = %.3f (limit %.2f)@." kind label value limit;
    if value > limit then begin
      if not quiet then
        Format.eprintf "FAIL: %s gate %s = %.3f exceeds %.2f@." kind label value limit;
      tripped := read @ !tripped
    end
  in
  let missing name =
    if not quiet then Format.eprintf "FAIL: a gate needs the %s row@." name;
    tripped := name :: !tripped
  in
  List.iter
    (fun (kind, pairs) ->
      List.iter
        (fun (row, base, limit, label) ->
          match (find row, find base) with
          | Some r, Some b ->
              gate [ row; base ] kind (label ^ " best") (r.ns_best /. b.ns_best) limit
          | None, _ -> missing row
          | _, None -> missing base)
        pairs)
    [ ("overhead", overhead_pairs); ("speedup", speedup_pairs) ];
  List.iter
    (fun (name, stat, ns_limit, words_limit, label) ->
      match find name with
      | Some r ->
          let ns = match stat with `Best -> r.ns_best | `Mean -> r.ns_mean in
          gate [ name ] "absolute" (Printf.sprintf "%s %s ns/op" label (stat_name stat)) ns
            ns_limit;
          Option.iter
            (gate [ name ] "absolute" (label ^ " mean minor words/op") r.words)
            words_limit
      | None -> missing name)
    absolute_gates;
  (* a sample must allocate nothing directly in the major heap — dense
     1 024-bin copies put ~14.6k words a window there *)
  (match find b18 with
  | Some r -> gate [ b18 ] "heap" "B18 worst round's major-heap words" r.major 0.0
  | None -> missing b18);
  (* B13 scaling. On a host with >= 4 cores, jobs=4 must cut the
     per-exec wall-clock to <= 0.6x of jobs=1 — failing that means the
     sharded engine stopped scaling. On narrower hosts a parallel speedup
     is physically impossible — the domains time-slice the cores and
     synchronize every minor GC — so the gate degrades to an anti-scaling
     guard: 1.6–1.7x on a shared 2-core host, where a busy phase has read
     up to 2.35x, so the 1.9 limit can trip on noise. The throughput
     floor (>= 100k execs/s, i.e. <= 10 µs per exec) applies to the best
     configuration the host can scale to: jobs=4 with >= 4 cores, jobs=1
     otherwise (~5 µs per exec on that 2-core host). *)
  (match (find (b13a 1), find (b13a 4)) with
  | Some j1, Some j4 ->
      let cores = Domain.recommended_domain_count () in
      gate [ j1.r_name; j4.r_name ] "scaling"
        (Printf.sprintf "B13a jobs=4/jobs=1 best (%d core(s))" cores)
        (j4.ns_best /. j1.ns_best)
        (if cores >= 4 then 0.6 else 1.9);
      let jobs, r = if cores >= 4 then (4, j4) else (1, j1) in
      gate [ r.r_name ] "scaling"
        (Printf.sprintf "B13a jobs=%d best ns/exec (>= 100k execs/s)" jobs)
        r.ns_best 10_000.0
  | _ -> missing (b13a 1));
  !tripped

(* the row an overhead or speedup gate compares [name] with *)
let parent name =
  List.find_map
    (fun (row, base, _, _) -> if String.equal row name then Some base else None)
    (overhead_pairs @ speedup_pairs)

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
  let str s = "\"" ^ json_escape s ^ "\"" in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"name\": %s, \"ns_best\": %.2f, \"ns_mean\": %.2f, \"minor_words_per_op\": %.2f, \
         \"parent\": %s}%s\n"
        (str r.r_name) r.ns_best r.ns_mean r.words
        (Option.fold ~none:"null" ~some:str (parent r.r_name))
        (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "]\n";
  close_out oc;
  Format.printf "microbench results written to %s@." file

let run ?json ?(check_overhead = false) () =
  Format.printf "@.==== Microbenchmarks ====@.@.";
  let passes = List.map measure groups in
  let b13 = b13_rows () in
  (* On a shared host one pass can trip a gate on noise: re-measure the
     groups holding the rows it read, once (B13's campaigns excepted),
     and gate on per-row minima, which only ever remove noise, never a
     real regression (the worst major-heap round is kept). *)
  let tripped =
    if check_overhead then check_gates ~quiet:true (List.concat passes @ b13) else []
  in
  let rows =
    List.concat
      (List.map2
         (fun group first ->
           if not (List.exists (fun r -> List.mem r.r_name tripped) first) then first
           else begin
             Format.printf "first pass tripped a gate on the %s group; re-measuring it@."
               (List.hd (String.split_on_char ' ' (List.hd first).r_name));
             List.map2
               (fun a b ->
                 {
                   a with
                   ns_best = Float.min a.ns_best b.ns_best;
                   ns_mean = Float.min a.ns_mean b.ns_mean;
                   words = Float.min a.words b.words;
                   major = Float.max a.major b.major;
                 })
               first (measure group)
           end)
         groups passes)
  in
  let rows = rows @ b13 in
  let table = Stats.Texttable.create [ "benchmark"; "best ns/op"; "mean ns/op"; "minor w/op" ] in
  List.iter
    (fun r ->
      Stats.Texttable.add_row table
        [ r.r_name; Printf.sprintf "%.1f" r.ns_best; Printf.sprintf "%.1f" r.ns_mean;
          Printf.sprintf "%.2f" r.words ])
    rows;
  Format.printf "%s@." (Stats.Texttable.render table);
  Option.iter (fun file -> write_json file rows) json;
  if check_overhead && check_gates rows <> [] then exit 1
