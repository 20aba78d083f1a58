(* Tests for IR values, table entries, runtime state and the typechecker. *)

module Value = P4ir.Value
module Entry = P4ir.Entry
module Runtime = P4ir.Runtime
module Classifier = P4ir.Classifier
module Ast = P4ir.Ast
module Typecheck = P4ir.Typecheck
module Programs = P4ir.Programs
module Dsl = P4ir.Dsl

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

let v w x = Value.of_int ~width:w x

(* ---------------- Value ---------------- *)

let test_value_truncation () =
  check_i64 "masked to width" 0x5L (Value.to_int64 (Value.make ~width:4 0xF5L));
  check_i64 "width 64 untouched" (-1L) (Value.to_int64 (Value.make ~width:64 (-1L)))

let test_value_modular_arithmetic () =
  check_i64 "8-bit wraparound" 0L (Value.to_int64 (Value.add (v 8 255) (v 8 1)));
  check_i64 "8-bit underflow" 255L (Value.to_int64 (Value.sub (v 8 0) (v 8 1)));
  (* 0xAB * 0x44 = 0x2D6C; low byte 0x6C *)
  check_i64 "mul wraps" 0x6CL (Value.to_int64 (Value.mul (v 8 0xAB) (v 8 0x44)))

let test_value_unsigned_compare () =
  let big = Value.make ~width:64 (-1L) (* 2^64-1 *) in
  check_bool "unsigned" true (Value.to_bool (Value.gt big (v 64 5)));
  check_bool "lt" true (Value.to_bool (Value.lt (v 16 3) (v 16 4)))

let test_value_shift () =
  check_i64 "shl" 0xF0L (Value.to_int64 (Value.shift_left (v 8 0xF) 4));
  check_i64 "shl drops" 0xE0L (Value.to_int64 (Value.shift_left (v 8 0xFE) 4));
  check_i64 "shr logical" 0x0FL (Value.to_int64 (Value.shift_right (v 8 0xF0) 4));
  check_i64 "shift >= 64 gives 0" 0L (Value.to_int64 (Value.shift_left (v 8 1) 64))

let test_value_slice_concat () =
  let x = v 16 0xABCD in
  check_i64 "slice high nibble" 0xAL (Value.to_int64 (Value.slice x ~msb:15 ~lsb:12));
  check_i64 "slice low byte" 0xCDL (Value.to_int64 (Value.slice x ~msb:7 ~lsb:0));
  let c = Value.concat (v 8 0xAB) (v 8 0xCD) in
  check_int "concat width" 16 (Value.width c);
  check_i64 "concat value" 0xABCDL (Value.to_int64 c);
  try
    ignore (Value.concat (v 40 0) (v 32 0));
    Alcotest.fail "concat > 64 accepted"
  with Invalid_argument _ -> ()

let test_value_prefix_match () =
  let addr = v 32 0x0A010203 in
  check_bool "matches /8" true (Value.matches_prefix addr ~value:0x0A000000L ~prefix_len:8);
  check_bool "matches /16" true (Value.matches_prefix addr ~value:0x0A010000L ~prefix_len:16);
  check_bool "no match /16" false (Value.matches_prefix addr ~value:0x0A020000L ~prefix_len:16);
  check_bool "/0 matches all" true (Value.matches_prefix addr ~value:0L ~prefix_len:0)

let prop_value_add_associative =
  QCheck.Test.make ~count:300 ~name:"modular add associates"
    QCheck.(quad (int_range 1 64) int64 int64 int64)
    (fun (w, a, b, c) ->
      let va = Value.make ~width:w a and vb = Value.make ~width:w b and vc = Value.make ~width:w c in
      Value.equal (Value.add (Value.add va vb) vc) (Value.add va (Value.add vb vc)))

let prop_slice_concat_inverse =
  QCheck.Test.make ~count:300 ~name:"concat then slice recovers operands"
    QCheck.(triple (int_range 1 32) (int_range 1 32) (pair int64 int64))
    (fun (w1, w2, (a, b)) ->
      let va = Value.make ~width:w1 a and vb = Value.make ~width:w2 b in
      let c = Value.concat va vb in
      Value.equal (Value.slice c ~msb:(w1 + w2 - 1) ~lsb:w2) va
      && Value.equal (Value.slice c ~msb:(w2 - 1) ~lsb:0) vb)

(* ---------------- Entry selection ---------------- *)

let sel ?degrade entries keys = Entry.select ?degrade_ternary_to_exact:degrade entries keys

let test_exact_match () =
  let e = Entry.make ~keys:[ Entry.exact (v 16 80) ] ~action:"a" () in
  check_bool "hit" true (sel [ e ] [ v 16 80 ] <> None);
  check_bool "miss" true (sel [ e ] [ v 16 81 ] = None)

let test_lpm_longest_wins () =
  let short = Entry.make ~keys:[ Entry.lpm (v 32 0x0A000000) 8 ] ~action:"short" () in
  let long = Entry.make ~keys:[ Entry.lpm (v 32 0x0A010000) 16 ] ~action:"long" () in
  (match sel [ short; long ] [ v 32 0x0A010203 ] with
  | Some e -> Alcotest.(check string) "longest prefix" "long" e.Entry.action
  | None -> Alcotest.fail "no match");
  match sel [ short; long ] [ v 32 0x0A020304 ] with
  | Some e -> Alcotest.(check string) "fallback to /8" "short" e.Entry.action
  | None -> Alcotest.fail "no match"

let test_lpm_order_independence () =
  let short = Entry.make ~keys:[ Entry.lpm (v 32 0x0A000000) 8 ] ~action:"short" () in
  let long = Entry.make ~keys:[ Entry.lpm (v 32 0x0A010000) 16 ] ~action:"long" () in
  match sel [ long; short ] [ v 32 0x0A010203 ] with
  | Some e -> Alcotest.(check string) "install order irrelevant" "long" e.Entry.action
  | None -> Alcotest.fail "no match"

let test_ternary_priority () =
  let low =
    Entry.make ~priority:1
      ~keys:[ Entry.ternary (v 16 0) (v 16 0) ]
      ~action:"any" ()
  in
  let high =
    Entry.make ~priority:10
      ~keys:[ Entry.ternary (v 16 23) (Value.ones 16) ]
      ~action:"telnet" ()
  in
  (match sel [ low; high ] [ v 16 23 ] with
  | Some e -> Alcotest.(check string) "priority wins" "telnet" e.Entry.action
  | None -> Alcotest.fail "no match");
  match sel [ low; high ] [ v 16 80 ] with
  | Some e -> Alcotest.(check string) "fallthrough" "any" e.Entry.action
  | None -> Alcotest.fail "no match"

let test_ternary_mask_semantics () =
  (* match on high byte only *)
  let e =
    Entry.make ~keys:[ Entry.ternary (v 16 0x1200) (v 16 0xFF00) ] ~action:"a" ()
  in
  check_bool "masked hit" true (sel [ e ] [ v 16 0x12FF ] <> None);
  check_bool "masked miss" true (sel [ e ] [ v 16 0x1300 ] = None)

let test_ternary_degraded_to_exact () =
  let e =
    Entry.make ~keys:[ Entry.ternary (v 16 0x1200) (v 16 0xFF00) ] ~action:"a" ()
  in
  (* quirk mode: mask ignored, value compared exactly *)
  check_bool "degraded hit only on exact value" true
    (sel ~degrade:true [ e ] [ v 16 0x1200 ] <> None);
  check_bool "degraded misses masked match" true
    (sel ~degrade:true [ e ] [ v 16 0x12FF ] = None)

let test_multi_key_entry () =
  let e =
    Entry.make
      ~keys:[ Entry.exact (v 12 10); Entry.lpm (v 32 0x0A000000) 8 ]
      ~action:"a" ()
  in
  check_bool "both match" true (sel [ e ] [ v 12 10; v 32 0x0A000001 ] <> None);
  check_bool "first key mismatch" true (sel [ e ] [ v 12 11; v 32 0x0A000001 ] = None);
  check_bool "arity mismatch" true (sel [ e ] [ v 12 10 ] = None)

let prop_lpm_longest_invariant =
  QCheck.Test.make ~count:300 ~name:"selected LPM entry has maximal prefix among matches"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 10) (pair int (int_bound 32))) int)
    (fun (prefixes, key) ->
      let key = Value.make ~width:32 (Int64.of_int key) in
      let entries =
        List.map
          (fun (addr, len) ->
            Entry.make
              ~keys:[ Entry.lpm (Value.make ~width:32 (Int64.of_int addr)) len ]
              ~action:(string_of_int len) ())
          prefixes
      in
      match sel entries [ key ] with
      | None -> List.for_all (fun e -> not (Entry.matches e [ key ])) entries
      | Some best ->
          List.for_all
            (fun e ->
              (not (Entry.matches e [ key ])) || Entry.specificity e <= Entry.specificity best)
            entries)

(* ---------------- Runtime validation ---------------- *)

let program = Programs.basic_router.Programs.program

let test_runtime_install_valid () =
  let rt = Runtime.create () in
  match Runtime.install_all program rt Programs.basic_router.Programs.entries with
  | Ok () -> check_int "entries installed" 3 (Runtime.entry_count rt "ipv4_lpm")
  | Error e -> Alcotest.fail e

let expect_error what = function
  | Ok () -> Alcotest.failf "accepted %s" what
  | Error _ -> ()

let test_runtime_rejects_unknown_table () =
  let rt = Runtime.create () in
  expect_error "unknown table"
    (Runtime.add program rt ~table:"nope"
       (Entry.make ~keys:[ Entry.exact (v 32 0) ] ~action:"set_nexthop" ()))

let test_runtime_rejects_bad_action () =
  let rt = Runtime.create () in
  expect_error "action not permitted"
    (Runtime.add program rt ~table:"ipv4_lpm"
       (Entry.make ~keys:[ Entry.lpm (v 32 0) 8 ] ~action:"mystery" ()))

let test_runtime_rejects_kind_mismatch () =
  let rt = Runtime.create () in
  expect_error "exact key on lpm table"
    (Runtime.add program rt ~table:"ipv4_lpm"
       (Entry.make ~keys:[ Entry.exact (v 32 0) ] ~action:"set_nexthop"
          ~args:[ v 9 1; Value.make ~width:48 1L ] ()))

let test_runtime_rejects_arg_mismatch () =
  let rt = Runtime.create () in
  expect_error "missing args"
    (Runtime.add program rt ~table:"ipv4_lpm"
       (Entry.make ~keys:[ Entry.lpm (v 32 0) 8 ] ~action:"set_nexthop" ~args:[ v 9 1 ] ()));
  expect_error "wrong arg width"
    (Runtime.add program rt ~table:"ipv4_lpm"
       (Entry.make ~keys:[ Entry.lpm (v 32 0) 8 ] ~action:"set_nexthop"
          ~args:[ v 8 1; Value.make ~width:48 1L ] ()))

(* Each key must fit its key expression: an exact value of another
   width, a prefix longer than the key or a ternary mask of another width
   is refused at install, and nothing is installed. *)
let test_runtime_rejects_key_width () =
  let refuses what (b : Programs.bundle) table e =
    let rt = Runtime.create () in
    (match Runtime.install_all b.Programs.program rt b.Programs.entries with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    let before = Runtime.entry_count rt table in
    expect_error what (Runtime.add b.Programs.program rt ~table e);
    check_int (what ^ ": nothing installed") before (Runtime.entry_count rt table)
  in
  refuses "exact key of the wrong width" Programs.l2_switch "smac"
    (Entry.make ~keys:[ Entry.exact (v 32 1) ] ~action:"src_known" ());
  refuses "prefix longer than the key" Programs.basic_router "ipv4_lpm"
    (Entry.make ~keys:[ Entry.lpm (v 32 0x0a00_0000) 40 ] ~action:"drop_packet" ());
  let any w = Entry.ternary (v w 0) (v w 0) in
  refuses "ternary mask of the wrong width" Programs.acl_firewall "acl"
    (Entry.make ~keys:[ Entry.ternary (v 32 0) (v 16 0); any 32; any 8; any 16 ] ~action:"permit" ())

let test_runtime_classifier_widths () =
  (* The staged engine pins a table's classifier on first apply, possibly
     before any entry: it takes the program's key widths (one 64-bit key,
     two words), and later installs patch it in place. *)
  let b = Programs.ipv6_router in
  let rt = Runtime.create () in
  let c =
    Runtime.tslot_classifier (Runtime.tslot rt "ipv6_lpm") b.Programs.program ~degrade:false
  in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let probe x = Classifier.find_values c [ Value.make ~width:64 x ] in
  check_int "/48 beats /32" 1 (probe 0x20010DB8_0001_0042L);
  check_int "/32" 0 (probe 0x20010DB8_0002_0000L);
  check_int "miss" (-1) (probe 0x3000_0000_0000_0000L);
  match Runtime.tslot_classifier (Runtime.tslot rt "nosuch") b.Programs.program ~degrade:false with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "classifier for an undeclared table"

let test_runtime_capacity () =
  let tiny =
    {
      program with
      Ast.p_tables =
        [
          Dsl.table ~size:2 "ipv4_lpm"
            [ (Dsl.fld "ipv4" "dst", Ast.Lpm) ]
            [ "set_nexthop"; "drop_packet" ]
            ~default:"drop_packet" ();
        ];
    }
  in
  let rt = Runtime.create () in
  let entry i =
    Entry.make
      ~keys:[ Entry.lpm (v 32 (i lsl 8)) 24 ]
      ~action:"drop_packet" ()
  in
  (match Runtime.add tiny rt ~table:"ipv4_lpm" (entry 1) with Ok () -> () | Error e -> Alcotest.fail e);
  (match Runtime.add tiny rt ~table:"ipv4_lpm" (entry 2) with Ok () -> () | Error e -> Alcotest.fail e);
  expect_error "over capacity" (Runtime.add tiny rt ~table:"ipv4_lpm" (entry 3))

let test_runtime_clear () =
  let rt = Runtime.create () in
  (match Runtime.install_all program rt Programs.basic_router.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Runtime.clear_table rt "ipv4_lpm";
  check_int "cleared" 0 (Runtime.entry_count rt "ipv4_lpm")

(* ---------------- Typecheck ---------------- *)

let test_all_programs_typecheck () =
  List.iter
    (fun (b : Programs.bundle) ->
      match Typecheck.check b.Programs.program with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s: %s" b.Programs.program.Ast.p_name
            (String.concat "; "
               (List.map (Format.asprintf "%a" Typecheck.pp_error) errs)))
    Programs.all

let base = Programs.reflector.Programs.program

let expect_tc_error what p =
  match Typecheck.check p with
  | Ok () -> Alcotest.failf "typechecker accepted %s" what
  | Error _ -> ()

let test_tc_undeclared_field () =
  expect_tc_error "undeclared field"
    { base with Ast.p_ingress = [ Dsl.set_field "eth" "bogus" (Dsl.const ~width:8 0) ] }

let test_tc_undeclared_header () =
  expect_tc_error "undeclared header"
    { base with Ast.p_ingress = [ Ast.SetValid "nothere" ] }

let test_tc_width_mismatch () =
  expect_tc_error "assign width mismatch"
    { base with Ast.p_ingress = [ Dsl.set_field "eth" "dst" (Dsl.const ~width:16 0) ] }

let test_tc_comparison_mismatch () =
  expect_tc_error "comparison width mismatch"
    {
      base with
      Ast.p_ingress =
        [ Dsl.when_ Dsl.(fld "eth" "dst" ==: const ~width:16 0) [ Ast.Nop ] ];
    }

let test_tc_if_non_bool () =
  expect_tc_error "non-boolean condition"
    { base with Ast.p_ingress = [ Ast.If (Dsl.fld "eth" "ethertype", [], []) ] }

let test_tc_bad_slice () =
  expect_tc_error "slice out of range"
    {
      base with
      Ast.p_ingress =
        [ Dsl.set_field "eth" "dst" (Ast.Slice (Dsl.fld "eth" "dst", 50, 3)) ];
    }

let test_tc_undeclared_table () =
  expect_tc_error "apply unknown table" { base with Ast.p_ingress = [ Ast.Apply "ghost" ] }

let test_tc_undeclared_counter () =
  expect_tc_error "unknown counter" { base with Ast.p_ingress = [ Ast.Count "ghost" ] }

let test_tc_duplicate_header () =
  expect_tc_error "duplicate header"
    { base with Ast.p_headers = [ Programs.eth_h; Programs.eth_h ] }

let test_tc_bad_transition () =
  expect_tc_error "transition to unknown state"
    {
      base with
      Ast.p_parser = [ Dsl.state "start" ~extracts:[ "eth" ] (Dsl.goto "missing") ];
    }

let test_tc_select_width_mismatch () =
  expect_tc_error "select case width"
    {
      base with
      Ast.p_parser =
        [
          Dsl.state "start" ~extracts:[ "eth" ]
            (Dsl.select
               [ Dsl.fld "eth" "ethertype" ]
               [ Dsl.case (v 8 4) Ast.To_accept ]
               ~default:Ast.To_reject);
        ];
    }

let test_tc_multiple_lpm_keys () =
  expect_tc_error "two lpm keys"
    {
      base with
      Ast.p_headers = [ Programs.eth_h ];
      p_actions = [ Dsl.action "noop" [] [] ];
      p_tables =
        [
          Dsl.table "t"
            [ (Dsl.fld "eth" "dst", Ast.Lpm); (Dsl.fld "eth" "src", Ast.Lpm) ]
            [ "noop" ] ~default:"noop" ();
        ];
    }

let test_tc_param_scope () =
  expect_tc_error "param outside action"
    { base with Ast.p_ingress = [ Dsl.set_field "eth" "dst" (Dsl.param "ghost") ] }

let () =
  Alcotest.run "p4ir"
    [
      ( "value",
        [
          Alcotest.test_case "truncation" `Quick test_value_truncation;
          Alcotest.test_case "modular arithmetic" `Quick test_value_modular_arithmetic;
          Alcotest.test_case "unsigned compare" `Quick test_value_unsigned_compare;
          Alcotest.test_case "shift" `Quick test_value_shift;
          Alcotest.test_case "slice/concat" `Quick test_value_slice_concat;
          Alcotest.test_case "prefix match" `Quick test_value_prefix_match;
          QCheck_alcotest.to_alcotest prop_value_add_associative;
          QCheck_alcotest.to_alcotest prop_slice_concat_inverse;
        ] );
      ( "entry",
        [
          Alcotest.test_case "exact" `Quick test_exact_match;
          Alcotest.test_case "lpm longest wins" `Quick test_lpm_longest_wins;
          Alcotest.test_case "lpm order independence" `Quick test_lpm_order_independence;
          Alcotest.test_case "ternary priority" `Quick test_ternary_priority;
          Alcotest.test_case "ternary mask semantics" `Quick test_ternary_mask_semantics;
          Alcotest.test_case "ternary degraded (quirk)" `Quick test_ternary_degraded_to_exact;
          Alcotest.test_case "multi-key" `Quick test_multi_key_entry;
          QCheck_alcotest.to_alcotest prop_lpm_longest_invariant;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "install valid" `Quick test_runtime_install_valid;
          Alcotest.test_case "rejects unknown table" `Quick test_runtime_rejects_unknown_table;
          Alcotest.test_case "rejects bad action" `Quick test_runtime_rejects_bad_action;
          Alcotest.test_case "rejects kind mismatch" `Quick test_runtime_rejects_kind_mismatch;
          Alcotest.test_case "rejects arg mismatch" `Quick test_runtime_rejects_arg_mismatch;
          Alcotest.test_case "rejects keys that do not fit" `Quick test_runtime_rejects_key_width;
          Alcotest.test_case "classifier takes the program's widths" `Quick
            test_runtime_classifier_widths;
          Alcotest.test_case "capacity enforced" `Quick test_runtime_capacity;
          Alcotest.test_case "clear" `Quick test_runtime_clear;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "all programs typecheck" `Quick test_all_programs_typecheck;
          Alcotest.test_case "undeclared field" `Quick test_tc_undeclared_field;
          Alcotest.test_case "undeclared header" `Quick test_tc_undeclared_header;
          Alcotest.test_case "width mismatch" `Quick test_tc_width_mismatch;
          Alcotest.test_case "comparison mismatch" `Quick test_tc_comparison_mismatch;
          Alcotest.test_case "if non-bool" `Quick test_tc_if_non_bool;
          Alcotest.test_case "bad slice" `Quick test_tc_bad_slice;
          Alcotest.test_case "undeclared table" `Quick test_tc_undeclared_table;
          Alcotest.test_case "undeclared counter" `Quick test_tc_undeclared_counter;
          Alcotest.test_case "duplicate header" `Quick test_tc_duplicate_header;
          Alcotest.test_case "bad transition" `Quick test_tc_bad_transition;
          Alcotest.test_case "select width mismatch" `Quick test_tc_select_width_mismatch;
          Alcotest.test_case "multiple lpm keys" `Quick test_tc_multiple_lpm_keys;
          Alcotest.test_case "param scope" `Quick test_tc_param_scope;
        ] );
    ]
