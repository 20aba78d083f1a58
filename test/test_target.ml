(* Tests for the device model: execution fidelity, timing, queues, taps,
   fault injection, and interpreter/device equivalence without quirks. *)

module Bitstring = Bitutil.Bitstring
module Interp = P4ir.Interp
module Runtime = P4ir.Runtime
module Programs = P4ir.Programs
module P = Packet
module Ipv4 = Packet.Ipv4
module Config = Target.Config
module Device = Target.Device
module Fault = Target.Fault
module Pipeline = Target.Pipeline
module Resource = Target.Resource
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Counter = Stats.Counter
module Span = Telemetry.Span

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

let build ?(quirks = Quirks.none) ?config (b : Programs.bundle) =
  let report = Compile.compile_exn ~quirks ?config b.Programs.program in
  let device = Device.create report.Compile.pipeline in
  (match
     Runtime.install_all b.Programs.program (Device.runtime device) b.Programs.entries
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  device

let udp dst = P.serialize (P.udp_ipv4 ~dst ())

(* basic_router with tables shrunk to fit [Config.small_target] *)
let small_router =
  let b = Programs.basic_router in
  {
    b with
    Programs.program =
      {
        b.Programs.program with
        P4ir.Ast.p_tables =
          List.map
            (fun (t : P4ir.Ast.table) -> { t with P4ir.Ast.t_size = 16 })
            b.Programs.program.P4ir.Ast.p_tables;
      };
  }

(* ---------------- functional fidelity ---------------- *)

let test_device_forwards_like_spec () =
  let d = build Programs.basic_router in
  match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A010203L)) with
  | Device.Emitted out ->
      check_int "port" 2 out.Device.o_port;
      let p = P.parse out.Device.o_bits in
      (match P.find_ipv4 p with
      | Some ip -> check_i64 "ttl decremented" 63L ip.Ipv4.ttl
      | None -> Alcotest.fail "no ipv4")
  | _ -> Alcotest.fail "not emitted"

let test_device_drop_dispositions () =
  let d = build Programs.basic_router in
  (match snd (Device.inject d ~source:(Device.External 0) (udp 0x08080808L)) with
  | Device.Dropped_pipeline "ingress" -> ()
  | _ -> Alcotest.fail "miss should drop in ingress");
  match
    snd (Device.inject d ~source:(Device.External 0) (P.serialize (P.arp_request ())))
  with
  | Device.Dropped_pipeline reason ->
      Alcotest.(check string) "parser reject" "parser:Reject" reason
  | _ -> Alcotest.fail "arp should die in parser (no quirks)"

let test_device_external_outputs () =
  let d = build Programs.basic_router in
  ignore (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L));
  ignore (Device.inject d ~source:(Device.External 1) (udp 0x0A010001L));
  let outs = Device.outputs d in
  check_int "two packets out" 2 (List.length outs);
  check_int "drained" 0 (List.length (Device.outputs d))

let test_inject_batch_matches_inject () =
  (* the batched hot path is packet-at-a-time injection minus the
     per-packet quiesce: dispositions must agree index-for-index *)
  let a = build Programs.basic_router in
  let b = build Programs.basic_router in
  let pkts =
    Array.of_list (List.map udp [ 0x0A010203L; 0x0A000001L; 0x08080808L; 0xC0A80001L ])
  in
  let batched = Device.inject_batch a ~source:(Device.External 0) pkts in
  let sequential =
    Array.map (fun p -> snd (Device.inject b ~source:(Device.External 0) p)) pkts
  in
  Device.quiesce b;
  Array.iteri
    (fun i got ->
      let same =
        match (got, sequential.(i)) with
        | Device.Emitted x, Device.Emitted y ->
            x.Device.o_port = y.Device.o_port
            && Bitstring.equal x.Device.o_bits y.Device.o_bits
        | Device.Dropped_pipeline x, Device.Dropped_pipeline y -> x = y
        | Device.Dropped_queue, Device.Dropped_queue -> true
        | _ -> false
      in
      check_bool (Printf.sprintf "packet %d disposition matches" i) true same)
    batched

let test_inject_batch_register_reset () =
  (* rate_limiter: port 0's budget is 3 packets. A plain batch shares the
     register file across the batch; reset_registers isolates every
     vector as if each ran on a fresh device *)
  let routed = udp 0x0A000005L in
  let fate = function
    | Device.Emitted _ -> `Fwd
    | Device.Dropped_pipeline _ -> `Drop
    | _ -> `Other
  in
  let plain =
    Device.inject_batch (build Programs.rate_limiter) ~source:(Device.External 0)
      (Array.make 6 routed)
  in
  Alcotest.(check (list (of_pp Fmt.nop)))
    "budget persists across the batch"
    [ `Fwd; `Fwd; `Fwd; `Drop; `Drop; `Drop ]
    (Array.to_list (Array.map fate plain));
  let isolated =
    Device.inject_batch (build Programs.rate_limiter) ~source:(Device.External 0)
      ~reset_registers:true (Array.make 6 routed)
  in
  Alcotest.(check (list (of_pp Fmt.nop)))
    "reset_registers isolates every vector"
    [ `Fwd; `Fwd; `Fwd; `Fwd; `Fwd; `Fwd ]
    (Array.to_list (Array.map fate isolated))

(* interpreter/device equivalence with a faithful compiler *)
let equivalence_property bundle =
  QCheck.Test.make ~count:150
    ~name:("device == interpreter without quirks: " ^ bundle.Programs.program.P4ir.Ast.p_name)
    QCheck.(triple (int_bound 0xFFFFFFF) (int_range 0 255) bool)
    (fun (dst_low, ttl, flip_version) ->
      let pkt =
        P.udp_ipv4
          ~dst:(Int64.of_int dst_low)
          ~ttl:(Int64.of_int ttl) ()
      in
      let pkt =
        if flip_version then
          P.map_ipv4 (fun ip -> Ipv4.with_checksum { ip with Ipv4.version = 5L }) pkt
        else pkt
      in
      let bits = P.serialize pkt in
      let rt = Runtime.create () in
      (match Runtime.install_all bundle.Programs.program rt bundle.Programs.entries with
      | Ok () -> ()
      | Error e -> failwith e);
      let spec = Interp.process bundle.Programs.program rt ~ingress_port:0 bits in
      let d = build bundle in
      match
        (spec.Interp.result, snd (Device.inject d ~source:(Device.External 0) bits))
      with
      | Interp.Forwarded (sp, sb), Device.Emitted out ->
          sp = out.Device.o_port && Bitstring.equal sb out.Device.o_bits
      | Interp.Dropped _, (Device.Dropped_pipeline _ | Device.Dropped_queue) -> true
      | Interp.Forwarded _, _ | Interp.Dropped _, _ -> false)

let prop_equiv_router = equivalence_property Programs.basic_router
let prop_equiv_split = equivalence_property Programs.router_split
let prop_equiv_guard = equivalence_property Programs.parser_guard
let prop_equiv_acl = equivalence_property Programs.acl_firewall

(* ipv6 traffic needs its own generator *)
let prop_equiv_ipv6 =
  QCheck.Test.make ~count:100 ~name:"device == interpreter without quirks: ipv6_router"
    QCheck.(triple int64 (int_range 0 255) bool)
    (fun (dst_hi, hop, flip_version) ->
      let ip =
        Packet.Ipv6.make ~hop_limit:(Int64.of_int hop) ~dst:(dst_hi, 99L) ~payload_len:4 ()
      in
      let ip = if flip_version then { ip with Packet.Ipv6.version = 7L } else ip in
      let bits =
        P.serialize
          (P.make [ P.Eth (Packet.Eth.make ~ethertype:0x86DDL ()); P.Ipv6 ip ]
             ~payload:(P.payload_of_string "abcd") ())
      in
      let b = Programs.ipv6_router in
      let rt = Runtime.create () in
      (match Runtime.install_all b.Programs.program rt b.Programs.entries with
      | Ok () -> ()
      | Error e -> failwith e);
      let spec = Interp.process b.Programs.program rt ~ingress_port:0 bits in
      let d = build b in
      match (spec.Interp.result, snd (Device.inject d ~source:(Device.External 0) bits)) with
      | Interp.Forwarded (sp, sb), Device.Emitted out ->
          sp = out.Device.o_port && Bitstring.equal sb out.Device.o_bits
      | Interp.Dropped _, (Device.Dropped_pipeline _ | Device.Dropped_queue) -> true
      | Interp.Forwarded _, _ | Interp.Dropped _, _ -> false)

(* ---------------- timing and queueing ---------------- *)

let test_latency_matches_cost_model () =
  let d = build Programs.basic_router in
  let bits = udp 0x0A000001L in
  match snd (Device.inject d ~source:(Device.External 0) ~at_ns:1000.0 bits) with
  | Device.Emitted out ->
      let cfg = Device.config d in
      let cycles = Pipeline.total_latency_cycles (Device.pipeline d) in
      let ser =
        let bytes = (Bitstring.length bits + 7) / 8 in
        (bytes + cfg.Config.bus_bytes_per_cycle - 1) / cfg.Config.bus_bytes_per_cycle
      in
      let expected = 1000.0 +. (float_of_int (cycles + ser) *. Config.cycle_ns cfg) in
      Alcotest.(check (float 0.001)) "zero-load latency" expected out.Device.o_out_time_ns
  | _ -> Alcotest.fail "not emitted"

let test_backpressure_latency_growth () =
  let d = build Programs.basic_router in
  let bits = udp 0x0A000001L in
  (* all packets arrive at t=0: each waits behind its predecessors *)
  let latencies =
    List.init 20 (fun _ ->
        match snd (Device.inject d ~source:(Device.External 0) ~at_ns:0.0 bits) with
        | Device.Emitted out -> out.Device.o_out_time_ns -. out.Device.o_in_time_ns
        | _ -> Alcotest.fail "not emitted")
  in
  let increasing =
    List.for_all2 (fun a b -> b > a)
      (List.filteri (fun i _ -> i < 19) latencies)
      (List.tl latencies)
  in
  check_bool "queueing delay grows" true increasing

let test_queue_overflow_drops () =
  let d = build ~config:Config.small_target small_router in
  let bits = udp 0x0A000001L in
  let drops = ref 0 in
  for _ = 1 to 200 do
    match snd (Device.inject d ~source:(Device.External 0) ~at_ns:0.0 bits) with
    | Device.Dropped_queue -> incr drops
    | _ -> ()
  done;
  check_bool "tail drops under flood" true (!drops > 0);
  check_bool "queue drop counter" true
    (Counter.Set.get (Device.counters d) "drop/queue" > 0L)

let test_queue_drains_over_time () =
  let d = build ~config:Config.small_target small_router in
  let bits = udp 0x0A000001L in
  for _ = 1 to 100 do
    ignore (Device.inject d ~source:(Device.External 0) ~at_ns:0.0 bits)
  done;
  let dropped_before = Counter.Set.get (Device.counters d) "drop/queue" in
  (* far in the future the queue is empty again *)
  Device.advance_to_ns d 1e9;
  (match snd (Device.inject d ~source:(Device.External 0) bits) with
  | Device.Emitted _ -> ()
  | _ -> Alcotest.fail "should be admitted after drain");
  check_i64 "no new queue drops" dropped_before
    (Counter.Set.get (Device.counters d) "drop/queue")

(* ---------------- visibility: check tap vs external view ---------------- *)

let test_check_tap_sees_nonphysical_port () =
  (* parser_guard punts ARP to port 63, which does not exist on a 4-port
     device: externally invisible, internally visible *)
  let d = build Programs.parser_guard in
  let tapped = ref [] in
  Device.set_check_tap d (fun out -> tapped := out :: !tapped);
  ignore (Device.inject d ~source:(Device.External 0) (P.serialize (P.arp_request ())));
  check_int "tap saw it" 1 (List.length !tapped);
  check_int "tap port is 63" 63 (List.hd !tapped).Device.o_port;
  check_int "externally invisible" 0 (List.length (Device.outputs d))

let test_broken_port_visibility () =
  let d = build Programs.basic_router in
  let tapped = ref 0 in
  Device.set_check_tap d (fun _ -> incr tapped);
  Device.set_port_broken d 1 true;
  ignore (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L));
  check_int "check point still sees it" 1 !tapped;
  check_int "external view empty" 0 (List.length (Device.outputs d));
  Device.set_port_broken d 1 false;
  ignore (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L));
  check_int "healthy again" 1 (List.length (Device.outputs d))

let test_tx_queue_overflow_after_check_point () =
  (* blast the full datapath rate at a single 12.8G output port: every
     packet passes the check point, but the TX buffer overflows and only a
     fraction reaches the wire *)
  let d = build Programs.basic_router in
  let tapped = ref 0 in
  Device.set_check_tap d (fun _ -> incr tapped);
  let bits = P.serialize (P.udp_ipv4 ~dst:0x0A000001L ~payload_bytes:1400 ()) in
  (* all at t=0: pipeline rate is 4x the port rate *)
  let n = 400 in
  for _ = 1 to n do
    ignore (Device.inject d ~source:(Device.External 0) ~at_ns:0.0 bits)
  done;
  let external_outs = Device.outputs d in
  check_int "check point saw everything" n !tapped;
  check_bool "wire saw fewer" true (List.length external_outs < n);
  check_bool "txq drops counted" true
    (Counter.Set.get (Device.counters d) "drop/txq1" > 0L);
  (* wire timestamps are spaced at the port serialization time *)
  let times = List.map (fun o -> o.Device.o_wire_time_ns) external_outs in
  let sorted = List.sort compare times in
  let min_gap =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (min acc (b -. a)) rest
      | _ -> acc
    in
    go infinity sorted
  in
  let bytes = (Bitstring.length bits + 7) / 8 in
  let expected_gap = float_of_int bytes /. (Config.port_rate_gbps (Device.config d) /. 8.0) in
  Alcotest.(check (float 1.0)) "port-rate spacing" expected_gap min_gap

let test_wire_time_includes_tx_serialization () =
  let d = build Programs.basic_router in
  let bits = udp 0x0A000001L in
  match snd (Device.inject d ~source:(Device.External 0) bits) with
  | Device.Emitted _ -> (
      match Device.outputs d with
      | [ out ] ->
          let bytes = (Bitstring.length bits + 7) / 8 in
          let ser = float_of_int bytes /. (Config.port_rate_gbps (Device.config d) /. 8.0) in
          Alcotest.(check (float 0.001))
            "wire = pipeline exit + tx serialization"
            (out.Device.o_out_time_ns +. ser)
            out.Device.o_wire_time_ns
      | _ -> Alcotest.fail "one output expected")
  | _ -> Alcotest.fail "not emitted"

let test_generator_source_bypasses_interfaces () =
  let d = build Programs.basic_router in
  (match snd (Device.inject d ~source:Device.Generator (udp 0x0A000001L)) with
  | Device.Emitted _ -> ()
  | _ -> Alcotest.fail "generator packet should flow");
  check_i64 "generator rx counted" 1L
    (Counter.Set.get (Device.counters d) "rx/generator");
  check_i64 "no external rx" 0L (Counter.Set.get (Device.counters d) "rx/external")

(* ---------------- stage counters and spans ---------------- *)

let test_stage_counters () =
  let d = build Programs.basic_router in
  ignore (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L));
  ignore (Device.inject d ~source:(Device.External 0) (udp 0x08080808L));
  let c = Device.counters d in
  check_i64 "parser saw both" 2L (Counter.Set.get c "stage/parser/seen");
  check_i64 "lpm applied twice" 2L (Counter.Set.get c "stage/ma:ipv4_lpm/seen");
  check_i64 "one hit" 1L (Counter.Set.get c "stage/ma:ipv4_lpm/hit");
  check_i64 "one miss" 1L (Counter.Set.get c "stage/ma:ipv4_lpm/miss");
  check_i64 "only hit reached deparser" 1L (Counter.Set.get c "stage/deparser/seen")

let test_per_packet_trace () =
  let d = build Programs.basic_router in
  Device.set_span_sampling d 1;
  let id, _ = Device.inject d ~source:(Device.External 0) (udp 0x0A000001L) in
  let spans = Span.spans_for_packet (Device.spans d) id in
  let note name =
    match List.find_opt (fun sp -> String.equal sp.Span.sp_name name) spans with
    | Some sp -> Option.value sp.Span.sp_note ~default:""
    | None -> Alcotest.failf "no %s span" name
  in
  Alcotest.(check string) "rx_queue spanned" "" (note "rx_queue");
  Alcotest.(check string) "parse accepted" "accept" (note "parse");
  Alcotest.(check string) "lpm stage names its action" "set_nexthop"
    (note "stage[1]:ma:ipv4_lpm");
  Alcotest.(check string) "deparse spanned" "emit" (note "deparse")

(* ---------------- fault injection ---------------- *)

let test_fault_drop_at_stage () =
  let d = build Programs.basic_router in
  Device.inject_fault d ~stage:"ma:ipv4_lpm" Fault.Drop_at_stage;
  (match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L)) with
  | Device.Lost_in_stage s -> Alcotest.(check string) "stage" "ma:ipv4_lpm" s
  | _ -> Alcotest.fail "fault should swallow packet");
  Device.clear_faults d;
  match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L)) with
  | Device.Emitted _ -> ()
  | _ -> Alcotest.fail "healthy after clear"

let test_fault_corrupt_field () =
  let d = build Programs.basic_router in
  Device.inject_fault d ~stage:"deparser" (Fault.Corrupt_field ("ipv4", "ttl", 0xFFL));
  match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L)) with
  | Device.Emitted out -> (
      match P.find_ipv4 (P.parse out.Device.o_bits) with
      | Some ip -> check_i64 "ttl corrupted (63 xor 0xff)" 0xC0L ip.Ipv4.ttl
      | None -> Alcotest.fail "no ipv4")
  | _ -> Alcotest.fail "not emitted"

let test_fault_stuck_miss () =
  let d = build Programs.basic_router in
  Device.inject_fault d ~stage:"ma:ipv4_lpm" Fault.Stuck_miss;
  match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L)) with
  | Device.Dropped_pipeline "ingress" -> ()
  | _ -> Alcotest.fail "stuck-miss table should fall to default drop"

let test_fault_intermittent_drop () =
  let d = build Programs.basic_router in
  Device.inject_fault d ~stage:"ma:ipv4_lpm" (Fault.Intermittent_drop 3);
  let outcomes =
    List.init 9 (fun _ ->
        match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L)) with
        | Device.Emitted _ -> `Fwd
        | Device.Lost_in_stage _ -> `Lost
        | _ -> `Other)
  in
  Alcotest.(check (list (of_pp Fmt.nop)))
    "every 3rd packet lost"
    [ `Fwd; `Fwd; `Lost; `Fwd; `Fwd; `Lost; `Fwd; `Fwd; `Lost ]
    outcomes;
  Device.clear_faults d;
  match snd (Device.inject d ~source:(Device.External 0) (udp 0x0A000001L)) with
  | Device.Emitted _ -> ()
  | _ -> Alcotest.fail "healthy after clearing the fault"

(* Each fault point of the pipeline walk — parser, match-action stage,
   egress, deparser — on a routed probe, a missing route and an ARP request
   the faithful parser rejects; clearing the faults restores the healthy
   fates. *)
let test_fault_points () =
  let routed = udp 0x0A000005L and unrouted = udp 0x08080808L in
  let arp = P.serialize (P.arp_request ()) in
  let fate = function
    | Device.Emitted o -> (
        match P.find_ipv4 (P.parse o.Device.o_bits) with
        | Some ip -> Printf.sprintf "port %d dst %08Lx" o.Device.o_port ip.Ipv4.dst
        | None -> Printf.sprintf "port %d" o.Device.o_port)
    | Device.Dropped_pipeline r -> "drop " ^ r
    | Device.Dropped_queue -> "queue"
    | Device.Lost_in_stage s -> "lost " ^ s
  in
  let healthy = [ "port 1 dst 0a000005"; "drop ingress"; "drop parser:Reject" ] in
  List.iter
    (fun (stage, fault, pkts, expected) ->
      let d = build Programs.basic_router in
      Device.inject_fault d ~stage fault;
      let what = Printf.sprintf "%s@%s" (Format.asprintf "%a" Fault.pp fault) stage in
      Alcotest.(check (list string))
        what expected
        (List.map (fun p -> fate (snd (Device.inject d ~source:(Device.External 0) p))) pkts);
      Device.clear_faults d;
      Alcotest.(check (list string))
        (what ^ " cleared") healthy
        (List.map
           (fun p -> fate (snd (Device.inject d ~source:(Device.External 0) p)))
           [ routed; unrouted; arp ]))
    [
      ("ma:ipv4_lpm", Fault.Stuck_miss, [ routed; unrouted ], [ "drop ingress"; "drop ingress" ]);
      ( "ma:ipv4_lpm",
        Fault.Corrupt_field ("ipv4", "dst", 0x00FF0000L),
        [ routed; arp ],
        [ "port 1 dst 0aff0005"; "drop parser:Reject" ] );
      ("egress", Fault.Drop_at_stage, [ routed; unrouted ], [ "lost egress"; "drop ingress" ]);
      ( "deparser",
        Fault.Intermittent_drop 3,
        [ routed; routed; routed; routed ],
        [ "port 1 dst 0a000005"; "port 1 dst 0a000005"; "lost deparser"; "port 1 dst 0a000005" ] );
      ( "parser",
        Fault.Intermittent_drop 2,
        [ routed; arp; arp; routed ],
        [ "port 1 dst 0a000005"; "lost parser"; "drop parser:Reject"; "lost parser" ] );
    ];
  (* a packet the parser's fault swallows is counted and spanned at the
     parser before it is lost, like a packet lost at any later stage *)
  let d = build Programs.basic_router in
  Device.set_span_sampling d 1;
  Device.inject_fault d ~stage:"parser" Fault.Drop_at_stage;
  let id, disposition = Device.inject d ~source:(Device.External 0) routed in
  Alcotest.(check string) "parser fault" "lost parser" (fate disposition);
  check_i64 "parser counted the lost packet" 1L
    (Counter.Set.get (Device.counters d) "stage/parser/seen");
  let spans = Span.spans_for_packet (Device.spans d) id in
  let find name = List.find_opt (fun sp -> String.equal sp.Span.sp_name name) spans in
  check_bool "lost packet has a parse span" true (Option.is_some (find "parse"));
  match find "packet" with
  | Some root ->
      check_bool "packet root carries the fault flag" true root.Span.sp_fault;
      Alcotest.(check (option string)) "packet root names the stage" (Some "parser")
        root.Span.sp_note
  | None -> Alcotest.fail "no packet span"

let test_fault_unknown_stage_rejected () =
  let d = build Programs.basic_router in
  try
    Device.inject_fault d ~stage:"ma:nope" Fault.Drop_at_stage;
    Alcotest.fail "accepted unknown stage"
  with Invalid_argument _ -> ()

(* ---------------- status ---------------- *)

let test_status_snapshot () =
  let d = build Programs.basic_router in
  for i = 0 to 9 do
    ignore
      (Device.inject d ~source:(Device.External (i mod 4))
         (udp (if i mod 2 = 0 then 0x0A000001L else 0x08080808L)))
  done;
  let st = Device.status d in
  check_i64 "in" 10L st.Device.st_packets_in;
  check_i64 "out" 5L st.Device.st_packets_out;
  check_i64 "pipeline drops" 5L st.Device.st_pipeline_drops;
  check_bool "stage counters exposed" true (st.Device.st_stage_seen <> [])

(* ---------------- resources ---------------- *)

let test_resource_accounting () =
  let r1 = Resource.make ~luts:10 ~brams:2 () in
  let r2 = Resource.make ~luts:5 ~tcam_bits:100 () in
  let s = Resource.add r1 r2 in
  check_int "luts" 15 s.Resource.luts;
  check_int "brams" 2 s.Resource.brams;
  check_int "tcam" 100 s.Resource.tcam_bits;
  check_bool "fits sume" true (Resource.fits s Config.netfpga_sume)

let test_line_rate_model () =
  let c = Config.netfpga_sume in
  Alcotest.(check (float 0.01)) "51.2 Gb/s aggregate" 51.2 (Config.line_rate_gbps c);
  Alcotest.(check (float 0.01)) "5 ns cycle" 5.0 (Config.cycle_ns c)

let () =
  Alcotest.run "target"
    [
      ( "fidelity",
        [
          Alcotest.test_case "forwards like spec" `Quick test_device_forwards_like_spec;
          Alcotest.test_case "drop dispositions" `Quick test_device_drop_dispositions;
          Alcotest.test_case "external outputs" `Quick test_device_external_outputs;
          Alcotest.test_case "inject_batch matches inject" `Quick
            test_inject_batch_matches_inject;
          Alcotest.test_case "inject_batch register reset" `Quick
            test_inject_batch_register_reset;
          QCheck_alcotest.to_alcotest prop_equiv_router;
          QCheck_alcotest.to_alcotest prop_equiv_split;
          QCheck_alcotest.to_alcotest prop_equiv_guard;
          QCheck_alcotest.to_alcotest prop_equiv_acl;
          QCheck_alcotest.to_alcotest prop_equiv_ipv6;
        ] );
      ( "timing",
        [
          Alcotest.test_case "latency cost model" `Quick test_latency_matches_cost_model;
          Alcotest.test_case "backpressure growth" `Quick test_backpressure_latency_growth;
          Alcotest.test_case "queue overflow" `Quick test_queue_overflow_drops;
          Alcotest.test_case "queue drains" `Quick test_queue_drains_over_time;
        ] );
      ( "visibility",
        [
          Alcotest.test_case "tap sees non-physical port" `Quick
            test_check_tap_sees_nonphysical_port;
          Alcotest.test_case "broken port" `Quick test_broken_port_visibility;
          Alcotest.test_case "generator bypasses interfaces" `Quick
            test_generator_source_bypasses_interfaces;
          Alcotest.test_case "tx overflow after check point" `Quick
            test_tx_queue_overflow_after_check_point;
          Alcotest.test_case "wire time includes tx" `Quick
            test_wire_time_includes_tx_serialization;
        ] );
      ( "taps",
        [
          Alcotest.test_case "stage counters" `Quick test_stage_counters;
          Alcotest.test_case "per-packet trace" `Quick test_per_packet_trace;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop at stage" `Quick test_fault_drop_at_stage;
          Alcotest.test_case "corrupt field" `Quick test_fault_corrupt_field;
          Alcotest.test_case "stuck miss" `Quick test_fault_stuck_miss;
          Alcotest.test_case "intermittent drop" `Quick test_fault_intermittent_drop;
          Alcotest.test_case "fault point per stage" `Quick test_fault_points;
          Alcotest.test_case "unknown stage rejected" `Quick test_fault_unknown_stage_rejected;
        ] );
      ("status", [ Alcotest.test_case "snapshot" `Quick test_status_snapshot ]);
      ( "resources",
        [
          Alcotest.test_case "accounting" `Quick test_resource_accounting;
          Alcotest.test_case "line rate model" `Quick test_line_rate_model;
        ] );
    ]
