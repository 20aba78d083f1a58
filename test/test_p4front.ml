(* Tests for the textual P4 frontend: lexer, parser, elaboration (width
   inference), and semantic equivalence of parsed programs with their
   OCaml-defined library twins. *)

module Ast = P4ir.Ast
module Value = P4ir.Value
module Entry = P4ir.Entry
module Runtime = P4ir.Runtime
module Interp = P4ir.Interp
module Programs = P4ir.Programs
module Lexer = P4front.Lexer
module Syntax = P4front.Syntax
module Front = P4front.Front
module Bitstring = Bitutil.Bitstring
module P = Packet

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* ---------------- lexer ---------------- *)

let toks src = List.map (fun t -> t.Lexer.tok) (Lexer.tokenize src)

let test_lex_basic () =
  Alcotest.(check bool) "shape" true
    (toks "table x { }"
    = [ Lexer.IDENT "table"; Lexer.IDENT "x"; Lexer.LBRACE; Lexer.RBRACE; Lexer.EOF ])

let test_lex_numbers () =
  (match toks "123 0x1F 0b101" with
  | [ Lexer.INT (123L, None); Lexer.INT (0x1FL, None); Lexer.INT (5L, None); Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "plain numbers");
  match toks "16w0x800 9w1" with
  | [ Lexer.INT (0x800L, Some 16); Lexer.INT (1L, Some 9); Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "width-prefixed"

let test_lex_ipv4_literal () =
  match toks "10.1.0.0" with
  | [ Lexer.INT (0x0A010000L, Some 32); Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "dotted quad"

let test_lex_operators () =
  Alcotest.(check bool) "mask vs and vs amp" true
    (toks "a &&& b && c & d"
    = [ Lexer.IDENT "a"; Lexer.MASK; Lexer.IDENT "b"; Lexer.AND; Lexer.IDENT "c";
        Lexer.AMP; Lexer.IDENT "d"; Lexer.EOF ]);
  Alcotest.(check bool) "arrows and compares" true
    (toks "-> >= <= << >>"
    = [ Lexer.ARROW; Lexer.GE; Lexer.LE; Lexer.SHL; Lexer.SHR; Lexer.EOF ])

let test_lex_comments () =
  Alcotest.(check bool) "comments stripped" true
    (toks "a // line\n /* block\n comment */ b" = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ])

let test_lex_errors () =
  (try
     ignore (Lexer.tokenize "@");
     Alcotest.fail "accepted @"
   with Lexer.Lex_error _ -> ());
  try
    ignore (Lexer.tokenize "/* unterminated");
    Alcotest.fail "accepted dangling comment"
  with Lexer.Lex_error _ -> ()

(* ---------------- parsing + elaboration ---------------- *)

let load_file path =
  match Front.parse_file path with
  | Ok b -> b
  | Error e -> Alcotest.failf "%s: %a" path Front.pp_error e

let router_path = "router.p4"
let kv_path = "kv_cache.p4"

(* dune copies the canonical examples/programs/*.p4 next to the test
   binary (see test/dune) *)

let test_router_parses () =
  let b = load_file router_path in
  check_int "3 entries" 3 (List.length b.Programs.entries);
  let p = b.Programs.program in
  check_int "2 headers" 2 (List.length p.Ast.p_headers);
  check_int "2 states" 2 (List.length p.Ast.p_parser);
  check_int "1 table" 1 (List.length p.Ast.p_tables);
  check_bool "verify checksum" true p.Ast.p_verify_ipv4_checksum

let deploy (b : Programs.bundle) =
  let rt = Runtime.create () in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (b.Programs.program, rt)

let test_parsed_router_equals_library_router () =
  let parsed = deploy (load_file router_path) in
  let native = deploy Programs.basic_router in
  let vectors =
    [
      P.serialize (P.udp_ipv4 ~dst:0x0A000005L ());
      P.serialize (P.udp_ipv4 ~dst:0x0A010203L ());
      P.serialize (P.udp_ipv4 ~dst:0xC0A80001L ());
      P.serialize (P.udp_ipv4 ~dst:0x08080808L ());
      P.serialize (P.udp_ipv4 ~dst:0x0A000005L ~ttl:1L ());
      P.serialize (P.arp_request ());
      P.serialize
        (P.map_ipv4 (fun ip -> { ip with P.Ipv4.checksum = 1L }) (P.udp_ipv4 ()));
    ]
  in
  List.iter
    (fun bits ->
      let r1 =
        (Interp.process (fst parsed) (snd parsed) ~ingress_port:0 bits).Interp.result
      in
      let r2 =
        (Interp.process (fst native) (snd native) ~ingress_port:0 bits).Interp.result
      in
      match (r1, r2) with
      | Interp.Forwarded (p1, b1), Interp.Forwarded (p2, b2) ->
          check_int "same port" p2 p1;
          check_bool "same bits" true (Bitstring.equal b1 b2)
      | Interp.Dropped _, Interp.Dropped _ -> ()
      | _ -> Alcotest.fail "parsed and native routers diverge")
    vectors

let test_parsed_kv_cache_works () =
  let program, rt = deploy (load_file kv_path) in
  let regs = P4ir.Regstate.create program in
  let kv ~op ~key ~value =
    let w = Bitstring.Writer.create () in
    Bitstring.Writer.push_bits w (P.Eth.to_bits (P.Eth.make ~ethertype:0x1235L ()));
    Bitstring.Writer.push_int64 w ~width:8 op;
    Bitstring.Writer.push_int64 w ~width:16 key;
    Bitstring.Writer.push_int64 w ~width:32 value;
    Bitstring.Writer.push_int64 w ~width:8 0L;
    Bitstring.Writer.contents w
  in
  let run pkt =
    match (Interp.process ~regs program rt ~ingress_port:1 pkt).Interp.result with
    | Interp.Forwarded (_, bits) -> bits
    | Interp.Dropped r -> Alcotest.failf "dropped: %s" r
  in
  let status bits = Bitstring.extract bits ~off:168 ~width:8 in
  let value bits = Bitstring.extract bits ~off:136 ~width:32 in
  check_i64 "miss" 0L (status (run (kv ~op:1L ~key:7L ~value:0L)));
  check_i64 "put ack" 1L (status (run (kv ~op:2L ~key:7L ~value:0xFEEDL)));
  let got = run (kv ~op:1L ~key:7L ~value:0L) in
  check_i64 "hit" 1L (status got);
  check_i64 "value" 0xFEEDL (value got)

let test_parsed_program_deploys_on_device () =
  let b = load_file router_path in
  let h = Netdebug.Harness.deploy ~quirks:Sdnet.Quirks.none b in
  let r = Netdebug.Usecases.Functional.run ~fuzz:8 h in
  check_bool "functional validation passes" true (Netdebug.Usecases.Functional.passed r)

(* ---------------- targeted syntax/elaboration cases ---------------- *)

let parse_ok src =
  match Front.parse_string ~name:"t" src with
  | Ok b -> b
  | Error e -> Alcotest.failf "parse failed: %a" Front.pp_error e

let parse_err what src =
  match Front.parse_string ~name:"t" src with
  | Ok _ -> Alcotest.failf "accepted %s" what
  | Error _ -> ()

let mini_prelude =
  {|
header eth { bit<48> dst; bit<48> src; bit<16> ethertype; }
parser { state start { extract(eth); transition accept; } }
deparser { emit(eth); }
|}

let test_width_inference_from_field () =
  (* bare literal adopts the field's width on both sides *)
  let b =
    parse_ok
      (mini_prelude
      ^ {| control ingress { if (eth.ethertype == 0x800) { eth.dst = 1; } } |})
  in
  match b.Programs.program.Ast.p_ingress with
  | [ Ast.If (Ast.Bin (Ast.Eq, _, Ast.Const c), [ Ast.Assign (_, Ast.Const d) ], []) ] ->
      check_int "cmp literal width" 16 (Value.width c);
      check_int "assign literal width" 48 (Value.width d)
  | _ -> Alcotest.fail "unexpected shape"

let test_width_inference_failure () =
  parse_err "uninferable literal"
    (mini_prelude ^ {| control ingress { if (1 == 1) { } } |})

let test_unknown_identifier () =
  parse_err "unknown field" (mini_prelude ^ {| control ingress { eth.bogus = 48w1; } |});
  parse_err "unknown header" (mini_prelude ^ {| control ingress { ip.dst = 48w1; } |})

let test_operator_precedence () =
  let b =
    parse_ok
      (mini_prelude
      ^ {| control ingress { if (eth.ethertype == 1 || eth.ethertype == 2 && eth.dst == 48w0) { } } |})
  in
  match b.Programs.program.Ast.p_ingress with
  (* || binds looser than && *)
  | [ Ast.If (Ast.Bin (Ast.LOr, _, Ast.Bin (Ast.LAnd, _, _)), [], []) ] -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_slice_and_concat () =
  let b =
    parse_ok
      (mini_prelude
      ^ {| control ingress { eth.ethertype = eth.dst[15:0]; eth.dst = eth.src[15:0] ++ eth.dst[31:0]; } |})
  in
  match b.Programs.program.Ast.p_ingress with
  | [ Ast.Assign (_, Ast.Slice (_, 15, 0)); Ast.Assign (_, Ast.Concat (_, _)) ] -> ()
  | _ -> Alcotest.fail "slice/concat shape"

let test_table_arity_checked () =
  parse_err "default arg arity"
    (mini_prelude
    ^ {|
action fwd(bit<9> p) { standard_metadata.egress_spec = p; }
table t { key = { eth.dst : exact; } actions = { fwd; } default_action = fwd(); }
control ingress { apply(t); }
|})

(* An entry the runtime would refuse is an error when the file loads,
   not an exception at deploy. *)
let test_entries_install_checked () =
  match
    Front.parse_string ~name:"t"
      (mini_prelude
      ^ {|
action fwd() { }
table t { key = { eth.ethertype : lpm; } actions = { fwd; } default_action = fwd(); }
control ingress { apply(t); }
entries { t { 0x800/24 -> fwd(); } }
|})
  with
  | Ok _ -> Alcotest.fail "accepted a prefix longer than its key"
  | Error e ->
      Alcotest.(check string) "runtime's message" "table t: key 1: lpm prefix length 24 out of range 0..16"
        e.Front.message

let test_entries_forms () =
  let b =
    parse_ok
      {|
header eth { bit<48> dst; bit<48> src; bit<16> ethertype; }
parser { state start { extract(eth); transition accept; } }
action allow() { }
action deny() { mark_to_drop(); }
table acl {
  key = { eth.src : ternary; eth.ethertype : ternary; }
  actions = { allow; deny; }
  default_action = deny();
}
control ingress { apply(acl); }
deparser { emit(eth); }
entries {
  acl {
    priority 10: 48w0 &&& 48w0, 0x800 -> allow();
    priority 99: 48w1, 0x806 &&& 16w0xFFFF -> deny();
  }
}
|}
  in
  match b.Programs.entries with
  | [ (_, e1); (_, e2) ] ->
      check_int "priority 1" 10 e1.Entry.priority;
      check_int "priority 2" 99 e2.Entry.priority;
      (match e2.Entry.keys with
      | [ Entry.Ternary_v (v, m); _ ] ->
          check_i64 "bare ternary value exact-matched" 1L (Value.to_int64 v);
          check_i64 "full mask" 0xFFFFFFFFFFFFL (Value.to_int64 m)
      | _ -> Alcotest.fail "key shapes")
  | _ -> Alcotest.fail "two entries expected"

let test_parse_error_positions () =
  match Front.parse_string ~name:"t" "header eth { bit<48> dst }" with
  | Error e -> check_bool "line recorded" true (e.Front.line >= 1)
  | Ok _ -> Alcotest.fail "accepted missing semicolon"

let test_else_if_chain () =
  let b =
    parse_ok
      (mini_prelude
      ^ {| control ingress {
             if (eth.ethertype == 1) { eth.dst = 48w1; }
             else if (eth.ethertype == 2) { eth.dst = 48w2; }
             else { eth.dst = 48w3; }
           } |})
  in
  match b.Programs.program.Ast.p_ingress with
  | [ Ast.If (_, _, [ Ast.If (_, _, [ Ast.Assign _ ]) ]) ] -> ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_select_wildcard_and_mask () =
  let b =
    parse_ok
      {|
header eth { bit<48> dst; bit<48> src; bit<16> ethertype; }
parser {
  state start {
    extract(eth);
    transition select (eth.ethertype, eth.dst) {
      (0x800, _): a;
      (0x86DD &&& 16w0xFFFF, 48w5): reject;
      default: accept;
    }
  }
  state a { transition accept; }
}
deparser { emit(eth); }
|}
  in
  match (List.hd b.Programs.program.Ast.p_parser).Ast.ps_transition with
  | Ast.Select ([ _; _ ], [ c1; c2 ], Ast.To_accept) ->
      (match c1.Ast.sc_keysets with
      | [ (_, None); (wild, Some m) ] ->
          check_bool "wildcard mask is zero" true (Value.is_zero m && Value.is_zero wild)
      | _ -> Alcotest.fail "case 1 keysets");
      (match c2.Ast.sc_keysets with
      | [ (_, Some m); (v, None) ] ->
          Alcotest.(check int64) "mask" 0xFFFFL (Value.to_int64 m);
          Alcotest.(check int64) "exact" 5L (Value.to_int64 v)
      | _ -> Alcotest.fail "case 2 keysets")
  | _ -> Alcotest.fail "select shape"

let test_method_call_forms () =
  let b =
    parse_ok
      {|
header eth { bit<48> dst; bit<48> src; bit<16> ethertype; }
counter seen;
action noop() { }
table t { key = { eth.dst : exact; } actions = { noop; } default_action = noop(); }
parser { state start { extract(eth); transition accept; } }
control ingress {
  t.apply();
  seen.count();
  eth.setInvalid();
  eth.setValid();
}
deparser { emit(eth); }
|}
  in
  match b.Programs.program.Ast.p_ingress with
  | [ Ast.Apply "t"; Ast.Count "seen"; Ast.SetInvalid "eth"; Ast.SetValid "eth" ] -> ()
  | _ -> Alcotest.fail "method-call statements"

let test_syntax_errors_have_positions () =
  List.iter
    (fun (what, src) ->
      match Front.parse_string ~name:"t" src with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error _ -> ())
    [
      ("missing transition", "header e { bit<8> f; } parser { state start { extract(e); } }");
      ("unknown method", mini_prelude ^ "control ingress { eth.frobnicate(); }");
      ("unterminated block", mini_prelude ^ "control ingress { ");
      ("bad match kind", mini_prelude ^ "action n() {} table t { key = { eth.dst : fuzzy; } actions = { n; } default_action = n(); }");
      ("entries before table", "entries { ghost { -> n(); } }");
    ]

(* random well-typed boolean expressions survive print -> parse -> elab *)
let prop_expr_roundtrip =
  let open QCheck in
  let field_w = [ (48, "dst"); (48, "src"); (16, "ethertype") ] in
  let rec gen_val w depth st =
    if depth = 0 then
      if Gen.bool st then Ast.Const (Value.make ~width:w (Gen.int64 st))
      else
        let candidates = List.filter (fun (fw, _) -> fw = w) field_w in
        (match candidates with
        | [] -> Ast.Const (Value.make ~width:w (Gen.int64 st))
        | cs ->
            let _, f = List.nth cs (Gen.int_bound (List.length cs - 1) st) in
            Ast.Field ("eth", f))
    else
      match Gen.int_bound 5 st with
      | 0 -> Ast.Bin (Ast.Add, gen_val w (depth - 1) st, gen_val w (depth - 1) st)
      | 1 -> Ast.Bin (Ast.BAnd, gen_val w (depth - 1) st, gen_val w (depth - 1) st)
      | 2 -> Ast.Bin (Ast.BXor, gen_val w (depth - 1) st, gen_val w (depth - 1) st)
      | 3 -> Ast.Un (Ast.BNot, gen_val w (depth - 1) st)
      | 4 -> Ast.Bin (Ast.Sub, gen_val w (depth - 1) st, gen_val w (depth - 1) st)
      | _ -> gen_val w 0 st
  in
  let rec gen_bool depth st =
    if depth = 0 then Ast.Valid "eth"
    else
      match Gen.int_bound 4 st with
      | 0 ->
          let w = if Gen.bool st then 48 else 16 in
          Ast.Bin (Ast.Eq, gen_val w (depth - 1) st, gen_val w (depth - 1) st)
      | 1 ->
          let w = if Gen.bool st then 48 else 16 in
          Ast.Bin (Ast.Lt, gen_val w (depth - 1) st, gen_val w (depth - 1) st)
      | 2 -> Ast.Bin (Ast.LAnd, gen_bool (depth - 1) st, gen_bool (depth - 1) st)
      | 3 -> Ast.Bin (Ast.LOr, gen_bool (depth - 1) st, gen_bool (depth - 1) st)
      | _ -> Ast.Un (Ast.LNot, gen_bool (depth - 1) st)
  in
  Test.make ~count:200 ~name:"random boolean exprs round-trip through source"
    (make (gen_bool 3))
    (fun expr ->
      let program =
        {
          Programs.reflector.Programs.program with
          Ast.p_name = "t";
          p_ingress = [ Ast.If (expr, [], []) ];
        }
      in
      match P4ir.Typecheck.check program with
      | Error _ -> true (* e.g. slice bounds; not generated here *)
      | Ok () -> (
          let src = P4front.Print.program_to_source program in
          match Front.parse_string ~name:"t" src with
          | Ok b -> b.Programs.program = program
          | Error _ -> false))

let test_print_parse_roundtrip_whole_library () =
  (* printing any library program and re-parsing it reproduces the exact
     same IR and entries, structurally *)
  List.iter
    (fun (b : Programs.bundle) ->
      let src = P4front.Print.bundle_to_source b in
      match Front.parse_string ~name:b.Programs.program.Ast.p_name src with
      | Error e ->
          Alcotest.failf "%s: reparse failed: %a" b.Programs.program.Ast.p_name
            Front.pp_error e
      | Ok b' ->
          check_bool
            (b.Programs.program.Ast.p_name ^ " program round-trips")
            true
            (b'.Programs.program = b.Programs.program);
          check_bool
            (b.Programs.program.Ast.p_name ^ " entries round-trip")
            true
            (b'.Programs.entries = b.Programs.entries))
    Programs.all

let test_typecheck_runs_in_elab () =
  (* references an undeclared counter: surfaces as Elab_error *)
  parse_err "undeclared counter"
    (mini_prelude ^ {| control ingress { count(nope); } |})

let () =
  Alcotest.run "p4front"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "ipv4 literal" `Quick test_lex_ipv4_literal;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "programs",
        [
          Alcotest.test_case "router parses" `Quick test_router_parses;
          Alcotest.test_case "parsed == native router" `Quick
            test_parsed_router_equals_library_router;
          Alcotest.test_case "parsed kv cache works" `Quick test_parsed_kv_cache_works;
          Alcotest.test_case "parsed program deploys" `Quick
            test_parsed_program_deploys_on_device;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "width inference from field" `Quick
            test_width_inference_from_field;
          Alcotest.test_case "width inference failure" `Quick test_width_inference_failure;
          Alcotest.test_case "unknown identifier" `Quick test_unknown_identifier;
          Alcotest.test_case "operator precedence" `Quick test_operator_precedence;
          Alcotest.test_case "slice and concat" `Quick test_slice_and_concat;
          Alcotest.test_case "table arity" `Quick test_table_arity_checked;
          Alcotest.test_case "entries forms" `Quick test_entries_forms;
          Alcotest.test_case "entries checked at load" `Quick test_entries_install_checked;
          Alcotest.test_case "error positions" `Quick test_parse_error_positions;
          Alcotest.test_case "typecheck in elab" `Quick test_typecheck_runs_in_elab;
          Alcotest.test_case "print/parse round-trip (whole library)" `Quick
            test_print_parse_roundtrip_whole_library;
          Alcotest.test_case "else-if chain" `Quick test_else_if_chain;
          Alcotest.test_case "select wildcard and mask" `Quick test_select_wildcard_and_mask;
          Alcotest.test_case "method call forms" `Quick test_method_call_forms;
          Alcotest.test_case "syntax errors" `Quick test_syntax_errors_have_positions;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        ] );
    ]
