(* Tests for the parallel execution engine: pool mechanics (chunked maps,
   exception propagation, close semantics), the epoch channel, and the
   end-to-end guarantee that matters — a parallel functional sweep
   reports exactly what the sequential one does. *)

module Pool = Par.Pool
module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Functional = Netdebug.Usecases.Functional
module Harness = Netdebug.Harness
module Device = Target.Device
module Counter = Stats.Counter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- pool ---------------- *)

let test_map_chunks_matches_sequential () =
  let xs = Array.init 101 (fun i -> i * 3) in
  let expect = Array.map (fun x -> (x * x) + 1) xs in
  List.iter
    (fun jobs ->
      let got =
        Pool.with_pool ~jobs (fun pool ->
            Pool.map_chunks pool ~chunk:7 (fun ~worker:_ _ x -> (x * x) + 1) xs)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expect got)
    [ 1; 2; 4 ]

let test_map_chunks_empty () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let got = Pool.map_chunks pool (fun ~worker:_ _ x -> x) [||] in
      check_int "empty in, empty out" 0 (Array.length got))

let test_map_chunks_indices () =
  (* every index is visited exactly once, and f sees its own index *)
  let n = 64 in
  let xs = Array.init n (fun i -> i) in
  Pool.with_pool ~jobs:3 (fun pool ->
      let got = Pool.map_chunks pool ~chunk:5 (fun ~worker:_ i x -> (i, x)) xs in
      Array.iteri
        (fun i (j, x) ->
          check_int "index passed through" i j;
          check_int "item matches index" i x)
        got)

let test_run_covers_all_workers () =
  let jobs = 4 in
  let lock = Mutex.create () in
  let seen = ref [] in
  Pool.with_pool ~jobs (fun pool ->
      Pool.run pool (fun w ->
          Mutex.lock lock;
          seen := w :: !seen;
          Mutex.unlock lock));
  Alcotest.(check (list int))
    "each worker index ran once" [ 0; 1; 2; 3 ]
    (List.sort compare !seen)

let test_exceptions_propagate () =
  List.iter
    (fun jobs ->
      let raised =
        try
          Pool.with_pool ~jobs (fun pool ->
              ignore
                (Pool.map_chunks pool
                   (fun ~worker:_ i x ->
                     if i = 13 then failwith "boom13" else x)
                   (Array.init 40 (fun i -> i))));
          false
        with Failure m -> m = "boom13"
      in
      check_bool (Printf.sprintf "failure surfaces at jobs=%d" jobs) true raised)
    [ 1; 4 ];
  (* the pool survives a failed generation and still closes cleanly;
     after close, run refuses *)
  let pool = Pool.create ~jobs:2 in
  (try Pool.run pool (fun _ -> failwith "x") with Failure _ -> ());
  Pool.run pool ignore;
  Pool.close pool;
  Alcotest.check_raises "closed pool refuses work"
    (Invalid_argument "Par.Pool.run: pool is closed") (fun () ->
      Pool.run pool ignore)

(* ---------------- parallel functional sweep ---------------- *)

let mismatch_facts (r : Functional.report) =
  ( r.Functional.fr_tested,
    List.map
      (fun (m : Functional.mismatch) ->
        ( m.Functional.mm_index,
          Bitutil.Bitstring.to_hex m.Functional.mm_packet,
          m.Functional.mm_expected,
          m.Functional.mm_got ))
      r.Functional.fr_mismatches )

let test_functional_parallel_identity () =
  (* parser_guard under the default (buggy) toolchain has real mismatches:
     the identity must hold for reports with content, not just clean ones *)
  let sweep jobs =
    let h = Harness.deploy ~span_sampling:0 Programs.parser_guard in
    Functional.run ~fuzz:48 ~jobs h
  in
  let seq = sweep 1 and par = sweep 4 in
  let t_seq, m_seq = mismatch_facts seq and t_par, m_par = mismatch_facts par in
  check_int "same vector count" t_seq t_par;
  check_bool "the sweep finds real mismatches" true (m_seq <> []);
  Alcotest.(check (list (triple int string (pair string string))))
    "same mismatches in the same order"
    (List.map (fun (i, p, e, g) -> (i, p, (e, g))) m_seq)
    (List.map (fun (i, p, e, g) -> (i, p, (e, g))) m_par);
  (* jobs >= 2 is scheduling-invariant by construction *)
  let par2 = sweep 2 in
  Alcotest.(check bool)
    "jobs=2 and jobs=4 agree" true
    (mismatch_facts par2 = mismatch_facts par)

let test_functional_register_program_jobs_invariance () =
  (* rate_limiter keeps per-port budgets in registers: every vector
     starts from zeroed registers at any jobs, so jobs=1 renders like
     jobs=2 — real quirk mismatches included — and a faithful device
     passes *)
  let render quirks jobs =
    let h = Harness.deploy ~quirks ~span_sampling:0 Programs.rate_limiter in
    Format.asprintf "%a" Functional.pp (Functional.run ~jobs h)
  in
  List.iter
    (fun (what, quirks) ->
      Alcotest.(check string)
        (what ^ ": jobs=1 renders like jobs=2")
        (render quirks 2) (render quirks 1))
    [ ("no quirks", Quirks.none); ("default quirks", Quirks.default) ];
  check_bool "faithful run passes" true
    (Functional.passed
       (Functional.run ~jobs:1 (Harness.deploy ~quirks:Quirks.none Programs.rate_limiter)))

let test_functional_parallel_telemetry_merged () =
  (* after the join, the caller's device accounts for every worker's
     generator traffic: one generated packet per vector — also when
     fewer vectors than workers leave replicas idle *)
  let check what run =
    let h = Harness.deploy ~span_sampling:0 Programs.basic_router in
    let r = run h in
    Alcotest.(check int64)
      ("merged generator counter covers the whole sweep: " ^ what)
      (Int64.of_int r.Functional.fr_tested)
      (Counter.Set.get (Device.counters h.Harness.device) "rx/generator")
  in
  check "16 fuzz vectors" (Functional.run ~fuzz:16 ~jobs:4);
  let v = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A000005L ()) in
  check "one vector, four workers" (Functional.run ~vectors:[ v ] ~fuzz:0 ~jobs:4)

let test_replicate_is_equivalent_and_independent () =
  let h = Harness.deploy Programs.basic_router in
  let r = Harness.replicate h in
  check_bool "distinct devices" true (h.Harness.device != r.Harness.device);
  let probe = Packet.serialize (Packet.udp_ipv4 ~dst:0x0A010203L ()) in
  let disp d = snd (Device.inject d ~source:(Device.External 0) probe) in
  let same =
    match (disp h.Harness.device, disp r.Harness.device) with
    | Device.Emitted a, Device.Emitted b ->
        a.Device.o_port = b.Device.o_port
        && Bitutil.Bitstring.equal a.Device.o_bits b.Device.o_bits
    | Device.Dropped_pipeline a, Device.Dropped_pipeline b -> a = b
    | _ -> false
  in
  check_bool "replica forwards identically" true same;
  (* entry clone is deep: clearing the replica's tables leaves the
     original untouched *)
  P4ir.Runtime.clear (Device.runtime r.Harness.device);
  check_bool "original keeps its entries" true
    (List.exists
       (fun t -> P4ir.Runtime.entry_count (Device.runtime h.Harness.device) t > 0)
       (P4ir.Runtime.tables (Device.runtime h.Harness.device)))

(* ---------------- epoch channel ---------------- *)

module Epoch = Par.Epoch

let test_epoch_publish_drain () =
  let t = Epoch.create () in
  let c = Epoch.cursor () in
  Alcotest.(check (list int)) "fresh channel drains empty" [] (Epoch.drain t c);
  Epoch.publish t [ 1; 2; 3 ];
  Epoch.publish t [];
  Epoch.publish t [ 4 ];
  Alcotest.(check (list int)) "publication order, in-batch order kept" [ 1; 2; 3; 4 ]
    (Epoch.drain t c);
  Alcotest.(check (list int)) "drained cursor sees nothing new" [] (Epoch.drain t c);
  Epoch.publish t [ 5 ];
  Alcotest.(check (list int)) "only the batch since the last drain" [ 5 ]
    (Epoch.drain t c);
  check_int "count is the total ever published" 5 (Epoch.count t);
  Alcotest.(check (list int)) "all replays the whole log" [ 1; 2; 3; 4; 5 ] (Epoch.all t)

let test_epoch_cursor_isolation () =
  let t = Epoch.create () in
  let a = Epoch.cursor () and b = Epoch.cursor () in
  Epoch.publish t [ 10; 11 ];
  Alcotest.(check (list int)) "a sees the first batch" [ 10; 11 ] (Epoch.drain t a);
  Epoch.publish t [ 12 ];
  Alcotest.(check (list int)) "b independently sees everything" [ 10; 11; 12 ]
    (Epoch.drain t b);
  Alcotest.(check (list int)) "a sees only the tail" [ 12 ] (Epoch.drain t a)

let test_epoch_concurrent_publish () =
  (* the channel's contract: concurrent single-item publishes from
     several domains lose nothing, duplicate nothing, and keep each
     producer's own order inside the interleaving *)
  let t = Epoch.create () in
  let n_dom = 4 and per = 500 in
  let doms =
    List.init n_dom (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Epoch.publish t [ (d * per) + i ]
            done))
  in
  List.iter Domain.join doms;
  check_int "every publish landed" (n_dom * per) (Epoch.count t);
  let drained = Epoch.all t in
  check_int "no losses" (n_dom * per) (List.length drained);
  check_int "no duplicates" (n_dom * per) (List.length (List.sort_uniq compare drained));
  List.iter
    (fun d ->
      Alcotest.(check (list int))
        (Printf.sprintf "producer %d order preserved" d)
        (List.init per (fun i -> (d * per) + i))
        (List.filter (fun x -> x / per = d) drained))
    (List.init n_dom Fun.id)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map_chunks matches sequential" `Quick
            test_map_chunks_matches_sequential;
          Alcotest.test_case "empty input" `Quick test_map_chunks_empty;
          Alcotest.test_case "indices visited once" `Quick test_map_chunks_indices;
          Alcotest.test_case "run covers all workers" `Quick test_run_covers_all_workers;
          Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "publish/drain order" `Quick test_epoch_publish_drain;
          Alcotest.test_case "cursor isolation" `Quick test_epoch_cursor_isolation;
          Alcotest.test_case "concurrent publish" `Quick test_epoch_concurrent_publish;
        ] );
      ( "functional",
        [
          Alcotest.test_case "parallel identity" `Quick test_functional_parallel_identity;
          Alcotest.test_case "register program jobs invariance" `Quick
            test_functional_register_program_jobs_invariance;
          Alcotest.test_case "telemetry merged" `Quick
            test_functional_parallel_telemetry_merged;
          Alcotest.test_case "replicate equivalent+independent" `Quick
            test_replicate_is_equivalent_and_independent;
        ] );
    ]
