(* Differential tests for the staged closure engine (P4ir.Compilecore):
   staged vs tree observations over the whole program library, fuzz-driven
   equivalence at 1 and 4 domains, counter-ordering pins, table-lookup
   corner cases, and the device against a tree reference of its pipeline
   under every quirk set. *)

module Bitstring = Bitutil.Bitstring
module Prng = Bitutil.Prng
module Ast = P4ir.Ast
module Value = P4ir.Value
module Entry = P4ir.Entry
module Runtime = P4ir.Runtime
module Regstate = P4ir.Regstate
module Parse = P4ir.Parse
module Interp = P4ir.Interp
module Programs = P4ir.Programs
module Dsl = P4ir.Dsl
module Mutate = Fuzz.Mutate
module Pool = Par.Pool
module Quirks = Sdnet.Quirks
module Compile = Sdnet.Compile
module Device = Target.Device
module Pipeline = Target.Pipeline
module Env = P4ir.Env
module Exec = P4ir.Exec
module Deparse = P4ir.Deparse
module P = Packet
module Eth = Packet.Eth
module Ipv4 = Packet.Ipv4
module Mpls = Packet.Mpls

let check_int = Alcotest.(check int)

let deploy (b : Programs.bundle) =
  let rt = Runtime.create () in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (b.Programs.program, rt)

(* ---------------- observation equality ---------------- *)

let result_equal a b =
  match (a, b) with
  | Interp.Forwarded (pa, ba), Interp.Forwarded (pb, bb) ->
      pa = pb && Bitstring.equal ba bb
  | Interp.Dropped ra, Interp.Dropped rb -> String.equal ra rb
  | _ -> false

let obs_equal (a : Interp.observation) (b : Interp.observation) =
  result_equal a.Interp.result b.Interp.result
  && a.Interp.parser.Parse.accepted = b.Interp.parser.Parse.accepted
  && a.Interp.parser.Parse.error = b.Interp.parser.Parse.error
  && a.Interp.parser.Parse.states_visited = b.Interp.parser.Parse.states_visited
  && a.Interp.tables = b.Interp.tables
  && a.Interp.counters = b.Interp.counters
  && a.Interp.failed_asserts = b.Interp.failed_asserts

let show_obs (o : Interp.observation) =
  let res =
    match o.Interp.result with
    | Interp.Forwarded (p, b) -> Printf.sprintf "Forwarded(%d,%s)" p (Bitstring.to_hex b)
    | Interp.Dropped r -> Printf.sprintf "Dropped(%s)" r
  in
  Printf.sprintf "%s parser={acc=%b err=%d visited=%s} tables=[%s] counters=[%s] asserts=[%s]"
    res o.Interp.parser.Parse.accepted o.Interp.parser.Parse.error
    (String.concat ">" o.Interp.parser.Parse.states_visited)
    (String.concat ";"
       (List.map (fun (t, h, a) -> Printf.sprintf "%s/%b/%s" t h a) o.Interp.tables))
    (String.concat ";"
       (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) o.Interp.counters))
    (String.concat ";" o.Interp.failed_asserts)

let regs_equal prog ra rb =
  List.for_all
    (fun (r : Ast.register_decl) ->
      let da = Regstate.dump ra r.Ast.r_name and db = Regstate.dump rb r.Ast.r_name in
      Array.length da = Array.length db
      && Array.for_all2 (fun x y -> Value.equal x y) da db)
    prog.Ast.p_registers

(* Run one packet under both engines (optionally threading register state)
   and fail loudly on any observable divergence. *)
let check_both ?rega ?regb ~what (prog, rt) ~port bits =
  let oa = Interp.process ~engine:`Tree ?regs:rega prog rt ~ingress_port:port bits in
  let ob = Interp.process ~engine:`Staged ?regs:regb prog rt ~ingress_port:port bits in
  if not (obs_equal oa ob) then
    Alcotest.failf "%s: engines diverge\n  tree:   %s\n  staged: %s" what (show_obs oa)
      (show_obs ob);
  (match (rega, regb) with
  | Some ra, Some rb ->
      if not (regs_equal prog ra rb) then
        Alcotest.failf "%s: register end-state diverges" what
  | _ -> ());
  oa

(* ---------------- engine matrix over the program library ---------------- *)

(* A probe set that exercises accepts, rejects, truncations and garbage in
   every bundle; each bundle's parser decides what it means. *)
let probes =
  let v6 dst_hi =
    P.serialize
      (P.fixup
         (P.make
            [
              P.Eth (Eth.make ~ethertype:0x86DDL ());
              P.Ipv6 (Packet.Ipv6.make ~dst:(dst_hi, 1L) ~payload_len:0 ());
            ]
            ()))
  in
  let vlan vid =
    P.serialize
      (P.fixup
         (P.make
            [
              P.Eth (Eth.make ());
              P.Vlan (Packet.Vlan.make ~vid ());
              P.Ipv4 (Ipv4.make ~dst:0x0A000099L ~payload_len:0 ());
            ]
            ()))
  in
  let mpls label =
    P.serialize
      (P.fixup
         (P.make
            [
              P.Eth (Eth.make ());
              P.Mpls (Mpls.make ~label ~bos:1L ());
              P.Ipv4 (Ipv4.make ~payload_len:0 ());
            ]
            ()))
  in
  let calc op =
    let w = Bitstring.Writer.create () in
    Bitstring.Writer.push_bits w
      (Eth.to_bits
         (Eth.make ~dst:0x020000000002L ~src:0x020000000001L ~ethertype:0x1234L ()));
    Bitstring.Writer.push_int64 w ~width:8 op;
    Bitstring.Writer.push_int64 w ~width:32 1234L;
    Bitstring.Writer.push_int64 w ~width:32 77L;
    Bitstring.Writer.push_int64 w ~width:32 0L;
    Bitstring.Writer.contents w
  in
  let prng = Prng.create 0x5EED in
  [
    P.serialize (P.udp_ipv4 ~dst:0x0A000005L ~ttl:64L ());
    P.serialize (P.udp_ipv4 ~dst:0x0A010203L ~ttl:2L ());
    P.serialize (P.udp_ipv4 ~dst:0xC0A80001L ~ttl:1L ());
    P.serialize (P.udp_ipv4 ~dst:0x08080808L ());
    P.serialize (P.udp_ipv4 ~eth_dst:0x020000000002L ~eth_src:0x02AAAAAAAAAAL ());
    P.serialize (P.tcp_ipv4 ~src:0x0A000001L ~dst:0x0A010001L ~dst_port:23L ());
    P.serialize (P.tcp_ipv4 ~src:0xC0A80001L ~dst:0x0A010005L ~dst_port:80L ());
    P.serialize (P.arp_request ());
    P.serialize
      (P.map_ipv4 (fun ip -> { ip with Ipv4.checksum = 0xBADL }) (P.udp_ipv4 ()));
    v6 0x20010DB8_0001_BBBBL;
    v6 0xFD00_0000_0000_0000L;
    vlan 10L;
    vlan 99L;
    mpls 100L;
    mpls 999L;
    calc 1L;
    calc 77L;
    Bitstring.empty;
    Bitstring.of_hex "45000014";
    Bitstring.random prng 64;
    Bitstring.random prng 112;
    Bitstring.random prng 272;
    Bitstring.random prng 513;
    Bitstring.random prng 1207;
  ]

let test_engine_matrix () =
  List.iter
    (fun (b : Programs.bundle) ->
      let dut = deploy b in
      let prog = fst dut in
      (* stateless pass: fresh registers per call in both engines *)
      List.iteri
        (fun i bits ->
          ignore
            (check_both
               ~what:(Printf.sprintf "%s probe %d" prog.Ast.p_name i)
               dut ~port:(i mod 4) bits))
        probes;
      (* stateful pass: one register store per engine, threaded *)
      if prog.Ast.p_registers <> [] then begin
        let rega = Regstate.create prog and regb = Regstate.create prog in
        List.iteri
          (fun i bits ->
            ignore
              (check_both ~rega ~regb
                 ~what:(Printf.sprintf "%s stateful probe %d" prog.Ast.p_name i)
                 dut ~port:(i mod 4) bits))
          probes
      end)
    Programs.all

(* ---------------- counter first-increment ordering ---------------- *)

let test_counter_order_pinned () =
  let program =
    {
      Programs.reflector.Programs.program with
      Ast.p_name = "ctr_order";
      p_counters = [ "alpha"; "zeta" ];
      p_ingress =
        [
          Dsl.count "zeta";
          Dsl.count "alpha";
          Dsl.count "zeta";
          Dsl.count "mid";
          Dsl.count "alpha";
          Dsl.egress_port 1;
        ];
    }
  in
  let rt = Runtime.create () in
  let bits = P.serialize (P.udp_ipv4 ()) in
  List.iter
    (fun engine ->
      let obs = Interp.process ~engine program rt ~ingress_port:0 bits in
      Alcotest.(check (list (pair string int)))
        "counters in first-increment order, not alphabetical"
        [ ("zeta", 2); ("alpha", 2); ("mid", 1) ]
        obs.Interp.counters)
    [ `Tree; `Staged ]

(* ---------------- table lookups ---------------- *)

(* Ternary table over eth.ethertype; priorities, specificity and install
   order all get a say. *)
let tern_bundle entries =
  let base = Programs.reflector.Programs.program in
  {
    Programs.program =
      {
        base with
        Ast.p_name = "tern_ties";
        p_actions =
          [
            Dsl.action "to1" [] [ Dsl.egress_port 1 ];
            Dsl.action "to2" [] [ Dsl.egress_port 2 ];
            Dsl.action "to3" [] [ Dsl.egress_port 3 ];
            Dsl.action "nop" [] [];
          ];
        p_tables =
          [
            Dsl.table "t" [ (Dsl.fld "eth" "ethertype", Ast.Ternary) ]
              [ "to1"; "to2"; "to3"; "nop" ] ~default:"nop" ();
          ];
        p_ingress = [ Dsl.apply "t" ];
      };
    entries;
    description = "ternary tie-break exerciser";
  }

let tern_entry ?priority v mask action =
  ("t", Entry.make ?priority ~keys:[ Entry.ternary (Value.of_int ~width:16 v) (Value.of_int ~width:16 mask) ] ~action ())

let expect_action what (obs : Interp.observation) action =
  match obs.Interp.tables with
  | [ ("t", _, a) ] -> Alcotest.(check string) what action a
  | other ->
      Alcotest.failf "%s: unexpected table trace (%d applies)" what (List.length other)

let test_ternary_tie_breaks () =
  let dut =
    deploy
      (tern_bundle
         [
           tern_entry ~priority:10 0x0800 0xFF00 "to1";
           (* same priority, more specific mask: wins on exact 0x0800 *)
           tern_entry ~priority:10 0x0800 0xFFFF "to2";
           (* identical to the previous row, installed later: loses *)
           tern_entry ~priority:10 0x0800 0xFFFF "to3";
         ])
  in
  let ipv4 = P.serialize (P.udp_ipv4 ()) in
  let obs = check_both ~what:"specificity tie" dut ~port:0 ipv4 in
  expect_action "specificity beats install order" obs "to2";
  (* runtime mutation mid-stream: the classifier is patched in place *)
  let prog, rt = dut in
  Runtime.add_exn prog rt ~table:"t"
    (snd (tern_entry ~priority:99 0 0 "to3"));
  let obs = check_both ~what:"priority after generation bump" dut ~port:0 ipv4 in
  expect_action "priority beats specificity" obs "to3"

let test_exact_hash_winner () =
  (* single exact key; duplicate keys keep the first row *)
  let base = Programs.reflector.Programs.program in
  let b =
    {
      Programs.program =
        {
          base with
          Ast.p_name = "hash_dup";
          p_actions =
            [
              Dsl.action "to1" [] [ Dsl.egress_port 1 ];
              Dsl.action "to2" [] [ Dsl.egress_port 2 ];
              Dsl.action "nop" [] [];
            ];
          p_tables =
            [
              Dsl.table "t" [ (Dsl.fld "eth" "ethertype", Ast.Exact) ]
                [ "to1"; "to2"; "nop" ] ~default:"nop" ();
            ];
          p_ingress = [ Dsl.apply "t" ];
        };
      entries =
        [
          ("t", Entry.make ~keys:[ Entry.exact (Value.of_int ~width:16 0x0800) ] ~action:"to1" ());
          ("t", Entry.make ~keys:[ Entry.exact (Value.of_int ~width:16 0x0800) ] ~action:"to2" ());
        ];
      description = "exact duplicate exerciser";
    }
  in
  let dut = deploy b in
  let obs = check_both ~what:"exact dup" dut ~port:0 (P.serialize (P.udp_ipv4 ())) in
  expect_action "first install wins among exact duplicates" obs "to1";
  let obs = check_both ~what:"exact miss" dut ~port:0 (P.serialize (P.arp_request ())) in
  expect_action "miss falls to default" obs "nop"

let test_lpm_zero_and_long () =
  (* /0 must match everything; longer prefixes must still beat it *)
  let b = Programs.basic_router in
  let dut = deploy b in
  let prog, rt = dut in
  Runtime.add_exn prog rt ~table:"ipv4_lpm"
    (Entry.make
       ~keys:[ Entry.lpm (Value.of_int ~width:32 0) 0 ]
       ~action:"set_nexthop"
       ~args:[ Value.of_int ~width:9 7; Value.of_int ~width:48 0xFE ]
       ());
  let port_of dst =
    let obs =
      check_both ~what:(Printf.sprintf "lpm %Lx" dst) dut ~port:0
        (P.serialize (P.udp_ipv4 ~dst ()))
    in
    match obs.Interp.result with
    | Interp.Forwarded (p, _) -> p
    | Interp.Dropped r -> Alcotest.failf "lpm %Lx dropped: %s" dst r
  in
  check_int "/0 catches previously-missing dst" 7 (port_of 0x08080808L);
  check_int "/16 still beats /0" 2 (port_of 0x0A010203L);
  check_int "/8 still beats /0" 1 (port_of 0x0A020304L)

(* ---------------- ipv4 checksum over odd header widths ---------------- *)

(* basic_router with [extra] fields spliced into ipv4 before its
   checksum and [tail] after its last field. The staged engine sums the
   header 16 bits at a time from its slots, the tree engine renders it
   and sums bytes; a width that is not a multiple of 16 (or of 8) ends
   in a zero-padded partial word. [extra] is a whole number of 16-bit
   words, since a checksum field only verifies on a word boundary. *)
let odd_ipv4_router ~name ~extra ~tail =
  let b = Programs.basic_router in
  let rec splice = function
    | [] -> tail
    | (f : Ast.field_decl) :: rest when f.Ast.f_name = "checksum" -> extra @ (f :: rest) @ tail
    | f :: rest -> f :: splice rest
  in
  let ipv4 (hd : Ast.header_decl) =
    if hd.Ast.h_name = "ipv4" then { hd with Ast.h_fields = splice hd.Ast.h_fields } else hd
  in
  {
    b with
    Programs.program =
      {
        b.Programs.program with
        Ast.p_name = name;
        p_headers = List.map ipv4 b.Programs.program.Ast.p_headers;
      };
  }

(* Random ipv4 headers of [hd]'s layout — version 4, a routed or
   unrouted destination, any ttl — each sent with its good checksum and
   with a corrupted one, behind an ethernet header and before a payload
   of any bit length. *)
let odd_ipv4_packets prng (hd : Ast.header_decl) n =
  let render ck fields =
    let w = Bitstring.Writer.create () in
    List.iter2
      (fun (f : Ast.field_decl) v ->
        Bitstring.Writer.push_int64 w ~width:f.Ast.f_width
          (if f.Ast.f_name = "checksum" then ck else v))
      hd.Ast.h_fields fields;
    Bitstring.Writer.contents w
  in
  let eth = Eth.to_bits (Eth.make ~ethertype:0x0800L ()) in
  List.concat
    (List.init n (fun _ ->
         let fields =
           List.map
             (fun (f : Ast.field_decl) ->
               match f.Ast.f_name with
               | "version" -> 4L
               | "dst" -> Prng.choose prng [| 0x0A000005L; 0x0A010203L; 0xC0A80001L; 0x08080808L |]
               | _ -> Prng.bits prng ~width:f.Ast.f_width)
             hd.Ast.h_fields
         in
         let good = Bitutil.Checksum.checksum_bits (render 0L fields) in
         let bad = good lxor (1 + Prng.int prng 0xfffe) in
         let payload = Bitstring.random prng (Prng.int prng 200) in
         List.map
           (fun ck -> Bitstring.concat [ eth; render (Int64.of_int ck) fields; payload ])
           [ good; bad ]))

let test_odd_width_ipv4_checksum () =
  let bit w n = { Ast.f_name = n; f_width = w } in
  List.iter
    (fun (name, extra, tail, width) ->
      let b = odd_ipv4_router ~name ~extra ~tail in
      let hd = Option.get (Ast.find_header b.Programs.program "ipv4") in
      check_int (name ^ " ipv4 width") width (Ast.header_width hd);
      let dut = deploy b in
      let prng = Prng.create width in
      let rejected = ref 0 and forwarded = ref 0 in
      List.iteri
        (fun i bits ->
          let obs = check_both ~what:(Printf.sprintf "%s packet %d" name i) dut ~port:0 bits in
          (* the verdict is the byte-wise checksum's over the rendered header *)
          let hdr = Bitstring.sub bits ~off:112 ~len:width in
          let valid = Bitutil.Checksum.valid (Bitstring.to_string hdr) in
          Alcotest.(check bool)
            (Printf.sprintf "%s packet %d passes the checksum check" name i)
            valid
            (obs.Interp.parser.Parse.error <> P4ir.Stdmeta.error_checksum);
          if not valid then incr rejected;
          match obs.Interp.result with Interp.Forwarded _ -> incr forwarded | _ -> ())
        (odd_ipv4_packets prng hd 100);
      (* both verdicts and the deparser's refresh are exercised *)
      Alcotest.(check bool) (name ^ ": some rejected") true (!rejected > 0);
      Alcotest.(check bool) (name ^ ": some refreshed and forwarded") true (!forwarded > 0))
    [
      ("ipv4_216", [ bit 40 "opt"; bit 8 "opt2" ], [ bit 8 "tail" ], 216);
      ("ipv4_227", [ bit 64 "opt" ], [ bit 3 "tail" ], 227);
    ]

(* ---------------- fuzz-driven differential (jobs 1 and 4) ---------------- *)

let file_bundles =
  lazy
    (List.map
       (fun f ->
         (* dune runtest copies the .p4 files next to the binary; fall back
            to the source tree when run by hand via dune exec *)
         let f =
           if Sys.file_exists f then f else Filename.concat "examples/programs" f
         in
         match P4front.Front.parse_file f with
         | Ok b -> b
         | Error e ->
             Alcotest.failf "parse %s: %d:%d %s" f e.P4front.Front.line
               e.P4front.Front.col e.P4front.Front.message)
       [ "router.p4"; "kv_cache.p4"; "heavy_hitter.p4" ])

let mutated_cases ~per_bundle seed =
  let prng = Prng.create seed in
  List.concat_map
    (fun (b : Programs.bundle) ->
      let lay = Mutate.layout_of b in
      let base =
        [|
          P.serialize (P.udp_ipv4 ~dst:0x0A000005L ());
          Bitstring.random prng lay.Mutate.total_bits;
        |]
      in
      List.init per_bundle (fun i ->
          let bits = Mutate.mutate lay prng (Prng.choose prng base) in
          (b, i, bits)))
    (Lazy.force file_bundles)

let prop_fuzz_differential_seq =
  QCheck.Test.make ~count:60 ~name:"staged == tree on mutated packets (jobs=1)"
    QCheck.(int_bound 0xFFFFFF)
    (fun seed ->
      List.for_all
        (fun ((b : Programs.bundle), i, bits) ->
          let prog, rt = deploy b in
          let rega = Regstate.create prog and regb = Regstate.create prog in
          let oa =
            Interp.process ~engine:`Tree ~regs:rega prog rt ~ingress_port:(i mod 4) bits
          in
          let ob =
            Interp.process ~engine:`Staged ~regs:regb prog rt ~ingress_port:(i mod 4)
              bits
          in
          obs_equal oa ob && regs_equal prog rega regb)
        (mutated_cases ~per_bundle:6 seed))

let test_fuzz_differential_par () =
  (* same differential, fanned over 4 domains: exercises the per-domain
     compile and instantiation caches *)
  let duts =
    List.map (fun b -> (b, deploy b)) (Lazy.force file_bundles)
  in
  let cases =
    Array.of_list
      (List.concat_map
         (fun seed ->
           List.map
             (fun ((b : Programs.bundle), _, bits) ->
               let _, dut = List.find (fun (b', _) -> b' == b) duts in
               (dut, bits))
             (mutated_cases ~per_bundle:8 seed))
         [ 11; 222; 3333 ])
  in
  let results =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map_chunks pool ~chunk:4
          (fun ~worker:_ i ((prog, rt), bits) ->
            let rega = Regstate.create prog and regb = Regstate.create prog in
            let oa =
              Interp.process ~engine:`Tree ~regs:rega prog rt ~ingress_port:(i mod 4)
                bits
            in
            let ob =
              Interp.process ~engine:`Staged ~regs:regb prog rt ~ingress_port:(i mod 4)
                bits
            in
            obs_equal oa ob && regs_equal prog rega regb)
          cases)
  in
  Array.iteri
    (fun i ok -> if not ok then Alcotest.failf "jobs=4 case %d diverged" i)
    results

(* ---------------- device parity: device vs tree reference ---------------- *)

(* The tree reference for a device: the pipeline's program walked by
   Parse/Exec/Deparse under the pipeline's own quirk hooks, on the
   device's table state, with one register store threaded across packets
   like the device's. Returns the store and a per-packet run giving
   [Ok (port, bits)] or [Error drop_reason]. *)
let tree_reference (pipeline : Pipeline.t) runtime =
  let program = pipeline.Pipeline.program in
  let regs = Regstate.create program in
  let env = Env.create program in
  let ctx = Exec.make_ctx ~hooks:pipeline.Pipeline.exec_hooks ~regs ~env ~runtime () in
  let run ~port bits =
    Env.reset env;
    Env.set_std env Ast.Ingress_port (Value.of_int ~width:9 port);
    let outcome = Parse.run ~hooks:pipeline.Pipeline.parse_hooks ctx bits in
    if not outcome.Parse.accepted then
      Error ("parser:" ^ P4ir.Stdmeta.error_name outcome.Parse.error)
    else begin
      Exec.set_phase ctx Exec.Ingress;
      Exec.run_stmts ctx program.Ast.p_ingress;
      if Env.dropped env then Error "ingress"
      else begin
        Exec.set_phase ctx Exec.Egress;
        Exec.run_stmts ctx program.Ast.p_egress;
        if Env.dropped env then Error "egress"
        else
          let out =
            Deparse.run ~update_ipv4_checksum:pipeline.Pipeline.update_ipv4_checksum env
          in
          Ok (Value.to_int (Env.get_std env Ast.Egress_spec), out)
      end
    end
  in
  (regs, run)

let build_device ~quirks (b : Programs.bundle) =
  let report = Compile.compile_exn ~quirks b.Programs.program in
  let d = Device.create report.Compile.pipeline in
  (match Runtime.install_all b.Programs.program (Device.runtime d) b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  d

let show_fate = function
  | Ok (port, bits) -> Printf.sprintf "port %d %s" port (Bitstring.to_hex bits)
  | Error reason -> "dropped " ^ reason

let device_fate what = function
  | Device.Emitted o -> Ok (o.Device.o_port, o.Device.o_bits)
  | Device.Dropped_pipeline r -> Error r
  | Device.Dropped_queue -> Alcotest.failf "%s: queue drop" what
  | Device.Lost_in_stage s -> Alcotest.failf "%s: lost in %s" what s

let fate_equal a b =
  match (a, b) with
  | Ok (pa, ba), Ok (pb, bb) -> pa = pb && Bitstring.equal ba bb
  | Error ra, Error rb -> String.equal ra rb
  | _ -> false

(* Inject every packet into the device and the tree reference alike and
   fail on the first fate that differs; then compare register state. *)
let check_device_parity ~what (b : Programs.bundle) d pkts =
  let regs, reference = tree_reference (Device.pipeline d) (Device.runtime d) in
  List.iteri
    (fun i bits ->
      let what = Printf.sprintf "%s pkt %d" what i in
      let got = device_fate what (snd (Device.inject d ~source:(Device.External (i mod 4)) bits)) in
      let want = reference ~port:(i mod 4) bits in
      if not (fate_equal got want) then
        Alcotest.failf "%s: device diverges from the tree reference\n  tree:   %s\n  device: %s"
          what (show_fate want) (show_fate got))
    pkts;
  if not (regs_equal b.Programs.program regs (Device.registers d)) then
    Alcotest.failf "%s: device register state diverges from the tree reference" what

let device_probe_set =
  [
    P.serialize (P.udp_ipv4 ~dst:0x0A000005L ());
    P.serialize (P.udp_ipv4 ~dst:0x0A010203L ());
    P.serialize (P.udp_ipv4 ~dst:0xC0A80001L ());
    P.serialize (P.udp_ipv4 ~dst:0x08080808L ());
    P.serialize (P.arp_request ());
    P.serialize
      (P.map_ipv4 (fun ip -> { ip with Ipv4.checksum = 0xBADL }) (P.udp_ipv4 ()));
    Bitstring.of_hex "45000014";
  ]

let acl_probes =
  List.map P.serialize
    [
      P.tcp_ipv4 ~src:0x0A000001L ~dst:0x0A010001L ~dst_port:23L ();
      P.tcp_ipv4 ~src:0xC0A80001L ~dst:0x0A010005L ~dst_port:80L ();
      P.udp_ipv4 ~src:0x0A000001L ~dst:0x0A000002L ~dst_port:4321L ();
    ]

(* after the probes before it in [parity_packets], this burst runs
   rate_limiter's port-0 budget of 3 out *)
let rate_bursts = List.init 12 (fun _ -> P.serialize (P.udp_ipv4 ~dst:0x0A000005L ()))

let parity_packets = device_probe_set @ acl_probes @ rate_bursts

(* Each bundle under each quirk set against its tree reference, then
   [after] on the device. Default quirks include the reject-continue bug:
   the arp probe takes the quirk path through the whole pipeline on both
   sides. *)
let check_parity_matrix ?(after = fun _ _ -> ()) bundles =
  List.iter
    (fun (qname, quirks) ->
      List.iter
        (fun (b : Programs.bundle) ->
          let what = Printf.sprintf "%s/%s" b.Programs.program.Ast.p_name qname in
          let d = build_device ~quirks b in
          check_device_parity ~what b d parity_packets;
          after what d)
        bundles)
    [ ("default-quirks", Quirks.default); ("no-quirks", Quirks.none); ("all-quirks", Quirks.all) ]

let test_device_parity_quirked () =
  check_parity_matrix (List.filter (fun b -> b != Programs.rate_limiter) Programs.all)

(* rate_limiter keeps per-port state: the parity check compares its
   registers, and the burst must have written them and dropped over budget *)
let test_device_parity_registers () =
  let b = Programs.rate_limiter in
  check_parity_matrix [ b ] ~after:(fun what d ->
      let touched =
        Array.exists (fun v -> Value.to_int64 v <> 0L)
          (Regstate.dump (Device.registers d)
             (List.hd b.Programs.program.Ast.p_registers).Ast.r_name)
      in
      Alcotest.(check bool) (what ^ ": the packets touched the registers") true touched;
      Alcotest.(check bool) (what ^ ": a port ran over budget") true
        (Stats.Counter.Set.get (Device.counters d) "prog/rate_limited" > 0L))

(* ---------------- generator render ---------------- *)

module Wire = Netdebug.Wire

(* A device that emits every packet exactly as injected (no headers, an
   empty parser and deparser), so its outputs are the generator's
   rendered wire bytes. *)
let passthrough =
  lazy
    (Compile.compile_exn ~quirks:Quirks.none
       {
         Programs.reflector.Programs.program with
         Ast.p_name = "passthrough";
         p_headers = [];
         p_parser = [ Dsl.state "start" Dsl.accept ];
         p_deparser = [];
         p_ingress = [ Dsl.set_std Ast.Egress_spec (Dsl.const ~width:9 1) ];
       })
      .Compile.pipeline

let staged_render program stream =
  let d = Device.create (Lazy.force passthrough) in
  let emitted = ref [] in
  Device.set_check_tap d (fun o -> emitted := o.Device.o_bits :: !emitted);
  let g = Netdebug.Generator.create ~program d in
  Netdebug.Generator.configure g [ stream ];
  Netdebug.Generator.start g;
  List.rev !emitted

(* The tree render, kept test-local: an unmutated template as given;
   otherwise the template parsed under the generator's lenient hooks into
   an [Env], the mutations applied through [Env] to valid headers only,
   then [Deparse.run] — refreshing the IPv4 checksum unless a mutation
   targets it. *)
let tree_render program (stream : Wire.stream) =
  match stream.Wire.s_mutations with
  | [] -> List.init stream.Wire.s_count (fun _ -> stream.Wire.s_template)
  | muts ->
      let prng =
        Prng.create
          (List.fold_left
             (fun acc m -> match m with Wire.Random_field (_, _, s) -> acc + s | _ -> acc)
             0x9E37 muts)
      in
      let targets_checksum =
        List.exists
          (function
            | Wire.Set_field (h, f, _) | Wire.Sweep_field (h, f, _, _) | Wire.Random_field (h, f, _)
              ->
                h = "ipv4" && f = "checksum")
          muts
      in
      let update = program.Ast.p_update_ipv4_checksum && not targets_checksum in
      List.init stream.Wire.s_count (fun i ->
          let env = Env.create program in
          ignore
            (Parse.run ~hooks:Parse.lenient_hooks
               (Exec.make_ctx ~env ~runtime:(Runtime.create ()) ())
               stream.Wire.s_template);
          let set h f v =
            if Env.is_valid env h then
              let width = Value.width (Env.get_field env h f) in
              Env.set_field env h f (Value.make ~width (v width))
          in
          List.iter
            (function
              | Wire.Set_field (h, f, v) -> set h f (fun _ -> v)
              | Wire.Sweep_field (h, f, start, step) ->
                  set h f (fun _ -> Int64.add start (Int64.mul step (Int64.of_int i)))
              | Wire.Random_field (h, f, _) -> set h f (fun width -> Prng.bits prng ~width))
            muts;
          Deparse.run ~update_ipv4_checksum:update env)

let render_outcome render =
  match render () with
  | bits -> Ok (List.map Bitstring.to_hex bits)
  | exception Invalid_argument msg -> Error msg

let stream_mutations =
  [
    [];
    [ Wire.Set_field ("ipv4", "ttl", 0x107L) ];
    [ Wire.Sweep_field ("ipv4", "dst", 0x0A000000L, 0x01000001L) ];
    [ Wire.Random_field ("eth", "src", 42); Wire.Random_field ("ipv4", "id", 7) ];
    [ Wire.Set_field ("ipv4", "checksum", 0xBADL) ];
    [ Wire.Set_field ("eth", "nosuch", 1L) ];
    [ Wire.Set_field ("nosuch", "f", 1L) ];
  ]

(* basic_router with its deparser reversed: a legal program whose
   deparser does not replay the parse, so a parse-then-deparse of a
   routed packet is not the identity. *)
let reversed_router =
  let p = Programs.basic_router.Programs.program in
  { p with Ast.p_name = "basic_router_reversed"; p_deparser = List.rev p.Ast.p_deparser }

(* Every bundle and the reversed-deparser router, every probe (truncated
   and garbage ones included), every stream shape: the staged render is
   the tree render, raised messages included, and an unmutated stream
   puts its template on the wire byte for byte. *)
let test_generator_render_parity () =
  let outcome = Alcotest.(result (list string) string) in
  List.iter
    (fun program ->
      List.iteri
        (fun pi template ->
          List.iteri
            (fun si mutations ->
              let stream = Netdebug.Controller.stream ~count:3 ~mutations template in
              let name = Printf.sprintf "%s probe %d stream %d" program.Ast.p_name pi si in
              let staged = render_outcome (fun () -> staged_render program stream) in
              Alcotest.check outcome name
                (render_outcome (fun () -> tree_render program stream))
                staged;
              if mutations = [] then
                Alcotest.check outcome (name ^ " is its template")
                  (Ok (List.init 3 (fun _ -> Bitstring.to_hex template)))
                  staged)
            stream_mutations)
        probes)
    (reversed_router :: List.map (fun (b : Programs.bundle) -> b.Programs.program) Programs.all);
  let router = Programs.basic_router.Programs.program in
  let render template mutations =
    render_outcome (fun () ->
        staged_render router (Netdebug.Controller.stream ~mutations template))
  in
  let arp = P.serialize (P.arp_request ()) in
  Alcotest.check outcome "an invalid header is left untouched"
    (Ok [ Bitstring.to_hex arp ])
    (render arp [ Wire.Set_field ("ipv4", "ttl", 7L) ]);
  let udp = P.serialize (P.udp_ipv4 ()) in
  Alcotest.check outcome "undeclared header" (Error "Env: undeclared header nosuch")
    (render udp [ Wire.Set_field ("nosuch", "f", 1L) ]);
  Alcotest.check outcome "undeclared field" (Error "Env: undeclared field ipv4.nosuch")
    (render udp [ Wire.Set_field ("ipv4", "nosuch", 1L) ])

let () =
  Alcotest.run "compilecore"
    [
      ( "engine matrix",
        [ Alcotest.test_case "all bundles, all probes" `Quick test_engine_matrix ] );
      ( "counters",
        [ Alcotest.test_case "first-increment order pinned" `Quick test_counter_order_pinned ] );
      ( "matchers",
        [
          Alcotest.test_case "ternary tie-breaks + rebuild" `Quick test_ternary_tie_breaks;
          Alcotest.test_case "exact hash winner" `Quick test_exact_hash_winner;
          Alcotest.test_case "lpm /0 and overlap" `Quick test_lpm_zero_and_long;
        ] );
      ( "checksum",
        [ Alcotest.test_case "odd-width ipv4 headers" `Quick test_odd_width_ipv4_checksum ] );
      ( "fuzz differential",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_differential_seq;
          Alcotest.test_case "mutated packets, jobs=4" `Quick test_fuzz_differential_par;
        ] );
      ( "device parity",
        [
          Alcotest.test_case "quirked pipelines" `Quick test_device_parity_quirked;
          Alcotest.test_case "register state" `Quick test_device_parity_registers;
        ] );
      ( "generator render",
        [ Alcotest.test_case "staged matches tree" `Quick test_generator_render_parity ] );
    ]
