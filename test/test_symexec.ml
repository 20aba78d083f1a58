(* Tests for the formal-verification baseline: symbolic expressions, the
   bounded solver, the path explorer, and the property checks — including
   replaying generated witness packets on the reference interpreter. *)

module Ast = P4ir.Ast
module Value = P4ir.Value
module Runtime = P4ir.Runtime
module Interp = P4ir.Interp
module Programs = P4ir.Programs
module Dsl = P4ir.Dsl
module Sym = Symexec.Sym
module Solver = Symexec.Solver
module Sexec = Symexec.Sexec
module Check = Symexec.Check
module Testgen = Symexec.Testgen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let v w x = Value.of_int ~width:w x

(* ---------------- Sym ---------------- *)

let test_sym_constant_folding () =
  let e = Sym.bin Ast.Add (Sym.of_int ~width:8 3) (Sym.of_int ~width:8 4) in
  (match Sym.is_const e with
  | Some c -> Alcotest.(check int64) "folded" 7L (Value.to_int64 c)
  | None -> Alcotest.fail "not folded");
  let x = Sym.fresh_var ~name:"x" ~width:8 in
  (* x + 0 = x *)
  check_bool "identity add" true (Sym.equal (Sym.bin Ast.Add x (Sym.of_int ~width:8 0)) x);
  (* x & 0 = 0 *)
  (match Sym.is_const (Sym.bin Ast.BAnd x (Sym.of_int ~width:8 0)) with
  | Some c -> check_bool "annihilator" true (Value.is_zero c)
  | None -> Alcotest.fail "x & 0 not folded");
  (* x == x folds to true *)
  check_bool "reflexive eq" true (Sym.equal (Sym.bin Ast.Eq x x) (Sym.const Value.tru));
  (* !!b = b *)
  check_bool "double negation" true (Sym.equal (Sym.not_ (Sym.not_ (Sym.bin Ast.Eq x (Sym.of_int ~width:8 1))))
      (Sym.bin Ast.Eq x (Sym.of_int ~width:8 1)))

let test_sym_width () =
  let x = Sym.fresh_var ~name:"x" ~width:16 in
  check_int "bin keeps width" 16 (Sym.width (Sym.bin Ast.Add x x));
  check_int "comparison is bool" 1 (Sym.width (Sym.bin Ast.Lt x x));
  check_int "slice" 8 (Sym.width (Sym.slice x ~msb:15 ~lsb:8));
  check_int "concat" 32 (Sym.width (Sym.concat x x))

let test_sym_eval () =
  let x = Sym.fresh_var ~name:"x" ~width:8 in
  let id = match x with Sym.Var v -> v.Sym.v_id | _ -> assert false in
  let e = Sym.bin Ast.Mul (Sym.bin Ast.Add x (Sym.of_int ~width:8 1)) (Sym.of_int ~width:8 2) in
  let result = Sym.eval (fun i -> if i = id then v 8 10 else assert false) e in
  Alcotest.(check int64) "(10+1)*2" 22L (Value.to_int64 result)

let test_sym_vars_dedup () =
  let x = Sym.fresh_var ~name:"x" ~width:8 in
  let e = Sym.bin Ast.Add x x in
  check_int "x counted once" 1 (List.length (Sym.vars e))

let test_sym_interning () =
  let x = Sym.fresh_var ~name:"x" ~width:8 in
  (* structurally equal terms built through the smart constructors share
     one allocation *)
  let a = Sym.bin Ast.Add x (Sym.of_int ~width:8 3) in
  let b = Sym.bin Ast.Add x (Sym.of_int ~width:8 3) in
  check_bool "equal binops are physically shared" true (a == b);
  check_bool "equal consts are physically shared" true
    (Sym.of_int ~width:16 0x800 == Sym.of_int ~width:16 0x800);
  let s1 = Sym.slice a ~msb:7 ~lsb:4 and s2 = Sym.slice a ~msb:7 ~lsb:4 in
  check_bool "equal slices are physically shared" true (s1 == s2);
  check_bool "different terms stay distinct" false
    (Sym.bin Ast.Add x (Sym.of_int ~width:8 4) == a);
  (* resetting the session drops the sharing but never the semantics *)
  Sym.new_session ();
  let c = Sym.bin Ast.Add x (Sym.of_int ~width:8 3) in
  check_bool "post-reset terms still compare equal" true (Sym.equal a c)

(* ---------------- compiled kernel ---------------- *)

(* Well-typed width-1 terms over 1–4 variables of width 1–64, built with
   the bare constructors so no simplification hides a shape: every
   binop and unop, slices, concatenations up to 64 bits, shifts by
   constant and by variable amounts, and the literal shapes the kernel
   specializes. Constants are drawn from edge values and from the
   model's own values, so comparisons hit as well as miss. *)
type kernel_case = { k_vars : Sym.var array; k_values : int64 array; k_term : Sym.t }

let mask_of w = if w >= 64 then -1L else Int64.(sub (shift_left 1L w) 1L)

let gen_kernel_case =
  let open QCheck.Gen in
  let* k_vars =
    let* n = int_range 1 4 in
    flatten_l
      (List.init n (fun i ->
           let* w = frequency [ (2, int_range 1 64); (1, return 64); (1, return 1) ] in
           match Sym.fresh_var ~name:(Printf.sprintf "k%d" i) ~width:w with
           | Sym.Var v -> return v
           | _ -> assert false))
    >|= Array.of_list
  in
  let* k_values =
    flatten_l
      (Array.to_list
         (Array.map
            (fun (v : Sym.var) ->
              let edge = oneofl [ 0L; -1L; Int64.min_int; 0x4000000000000000L; 1L; 63L; 64L ] in
              frequency [ (2, edge); (3, ui64); (1, map Int64.of_int (int_bound 70)) ]
              >|= Int64.logand (mask_of v.Sym.v_width))
            k_vars))
    >|= Array.of_list
  in
  let bits =
    frequency
      [
        (2, oneofa k_values);
        (1, map2 Int64.shift_right_logical (oneofa k_values) (int_bound 63));
        (2, oneofl [ 0L; 1L; -1L; Int64.min_int; 0x4000000000000000L; 0x3FFFFFFFFFFFFFFFL ]);
        (2, map Int64.of_int (int_bound 70));
        (1, ui64);
      ]
  in
  let const w = bits >|= fun x -> Sym.Const (Value.make ~width:w x) in
  let var = oneofa k_vars in
  (* a term of width [w] over one variable: itself, a slice of it, or it
     zero-extended by a constant on top *)
  let var_term w =
    var >>= fun (v : Sym.var) ->
    if v.Sym.v_width = w then return (Sym.Var v)
    else if v.Sym.v_width > w then
      int_bound (v.Sym.v_width - w) >|= fun lsb -> Sym.Slice (Sym.Var v, lsb + w - 1, lsb)
    else const (w - v.Sym.v_width) >|= fun hi -> Sym.Concat (hi, Sym.Var v)
  in
  let arith = [| Ast.Add; Ast.Sub; Ast.Mul; Ast.BAnd; Ast.BOr; Ast.BXor |] in
  let cmps = [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |] in
  let rec value w d =
    let leaf = frequency [ (2, const w); (3, var_term w) ] in
    if d = 0 then leaf
    else
      frequency
        ([
           (2, leaf);
           (3, map3 (fun op a b -> Sym.Bin (op, a, b)) (oneofa arith) (value w (d - 1)) (value w (d - 1)));
           ( 2,
             let* op = oneofl [ Ast.Shl; Ast.Shr ] in
             let* a = value w (d - 1) in
             let* amount =
               frequency
                 [
                   (2, int_range 1 64 >>= const);
                   (2, int_range 1 64 >>= var_term);
                   (1, int_range 1 64 >>= fun aw -> value aw (d - 1));
                 ]
             in
             return (Sym.Bin (op, a, amount)) );
           (1, value w (d - 1) >|= fun a -> Sym.Un (Ast.BNot, a));
           ( 1,
             let* extra = int_bound (64 - w) in
             let* lsb = int_bound extra in
             let* a = value (w + extra) (d - 1) in
             return (Sym.Slice (a, lsb + w - 1, lsb)) );
         ]
        @ (if w >= 2 then
             [
               ( 1,
                 let* wa = int_range 1 (w - 1) in
                 map2 (fun a b -> Sym.Concat (a, b)) (value wa (d - 1)) (value (w - wa) (d - 1)) );
             ]
           else [])
        @ if w = 1 then [ (2, pred (d - 1)) ] else [])
  and pred d =
    let literal =
      let* (v : Sym.var) = var in
      let x = Sym.Var v and w = v.Sym.v_width in
      frequency
        [
          (2, map2 (fun op c -> Sym.Bin (op, x, c)) (oneofa cmps) (const w));
          ( 1,
            map2
              (fun m c -> Sym.Bin (Ast.Eq, Sym.Bin (Ast.BAnd, x, m), c))
              (const w) (const w) );
          ( 1,
            map2
              (fun s c -> Sym.Bin (Ast.Eq, Sym.Bin (Ast.Shr, x, s), c))
              (oneofl [ 8; 64 ] >>= const) (const w) );
        ]
    in
    let compare =
      let* w = int_range 1 64 in
      map3 (fun op a b -> Sym.Bin (op, a, b)) (oneofa cmps) (value w d) (value w d)
    in
    if d = 0 then frequency [ (3, literal); (1, compare); (1, var_term 1) ]
    else
      frequency
        [
          (3, literal);
          (3, compare);
          (2, map3 (fun op a b -> Sym.Bin (op, a, b)) (oneofl [ Ast.LAnd; Ast.LOr ]) (pred (d - 1)) (pred (d - 1)));
          (1, pred (d - 1) >|= fun a -> Sym.Un (Ast.LNot, a));
          (1, value 1 d);
        ]
  in
  let* k_term = int_range 0 3 >>= pred in
  return { k_vars; k_values; k_term }

let print_kernel_case c =
  Format.asprintf "%a under %s" Sym.pp c.k_term
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun i (v : Sym.var) -> Printf.sprintf "%s#%d=0x%Lx" v.Sym.v_name v.Sym.v_id c.k_values.(i))
             c.k_vars)))

let prop_compile_matches_eval =
  QCheck.Test.make ~count:3000 ~name:"compiled kernel agrees with Sym.eval"
    (QCheck.make ~print:print_kernel_case gen_kernel_case)
    (fun c ->
      let slot id =
        let rec find i = if c.k_vars.(i).Sym.v_id = id then i else find (i + 1) in
        find 0
      in
      let lookup id =
        let i = slot id in
        Value.make ~width:c.k_vars.(i).Sym.v_width c.k_values.(i)
      in
      let outcome f = match f () with b -> `Bool b | exception Invalid_argument _ -> `Invalid in
      let reference = outcome (fun () -> Value.to_bool (Sym.eval lookup c.k_term)) in
      let compiled = outcome (fun () -> Sym.compile slot c.k_term c.k_values) in
      let show = function `Bool b -> string_of_bool b | `Invalid -> "Invalid_argument" in
      reference = compiled
      || QCheck.Test.fail_reportf "eval says %s, compile says %s" (show reference) (show compiled))

(* ---------------- Solver ---------------- *)

let var w name = Sym.fresh_var ~name ~width:w

let test_solver_exact_constraint () =
  let x = var 16 "ethertype" in
  match Solver.solve [ Sym.bin Ast.Eq x (Sym.of_int ~width:16 0x800) ] with
  | Solver.Sat m ->
      let id = match x with Sym.Var v -> v.Sym.v_id | _ -> assert false in
      Alcotest.(check int64) "model value" 0x800L (Value.to_int64 (Solver.model_value m id))
  | _ -> Alcotest.fail "no model"

let test_solver_masked_constraint () =
  let x = var 32 "addr" in
  let masked =
    Sym.bin Ast.Eq
      (Sym.bin Ast.BAnd x (Sym.of_int ~width:32 0xFF000000))
      (Sym.of_int ~width:32 0x0A000000)
  in
  match Solver.solve [ masked ] with
  | Solver.Sat m -> check_bool "model satisfies" true (Solver.holds m [ masked ])
  | _ -> Alcotest.fail "no model for masked constraint"

let test_solver_lpm_shape () =
  let x = var 32 "dst" in
  (* (x >> 16) == 0x0A01: the shape entry_match_cond emits for /16 *)
  let c =
    Sym.bin Ast.Eq
      (Sym.bin Ast.Shr x (Sym.of_int ~width:8 16))
      (Sym.of_int ~width:32 0x0A01)
  in
  match Solver.solve [ c ] with
  | Solver.Sat m -> check_bool "model satisfies lpm" true (Solver.holds m [ c ])
  | _ -> Alcotest.fail "no model for lpm shape"

let test_solver_conjunction_and_negation () =
  let x = var 16 "port" in
  let cs =
    [
      Sym.bin Ast.Neq x (Sym.of_int ~width:16 80);
      Sym.bin Ast.Gt x (Sym.of_int ~width:16 1000);
      Sym.bin Ast.Lt x (Sym.of_int ~width:16 1003);
    ]
  in
  match Solver.solve cs with
  | Solver.Sat m -> check_bool "holds all" true (Solver.holds m cs)
  | _ -> Alcotest.fail "no model for small range"

let test_solver_trivial () =
  (match Solver.solve [ Sym.const Value.fls ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "constant false should be Unsat");
  (match Solver.solve [] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "empty conjunction is Sat");
  let x = var 8 "x" in
  match
    Solver.solve ~max_tries:500
      [
        Sym.bin Ast.Eq x (Sym.of_int ~width:8 1);
        Sym.bin Ast.Eq x (Sym.of_int ~width:8 2);
      ]
  with
  | Solver.Unknown -> ()
  | Solver.Sat _ -> Alcotest.fail "contradiction declared Sat"
  | Solver.Unsat -> () (* fine too, if it ever learns to prove it *)

let test_solver_unsat_detection () =
  (* the same information expressed via mask and via shift, contradicting *)
  let dst = var 32 "dst" in
  let masked =
    Sym.bin Ast.Eq
      (Sym.bin Ast.BAnd dst (Sym.of_int ~width:32 0xFFFF0000))
      (Sym.of_int ~width:32 0x0A010000)
  in
  let shifted =
    Sym.bin Ast.Eq
      (Sym.bin Ast.Shr dst (Sym.of_int ~width:8 16))
      (Sym.of_int ~width:32 0x0A01)
  in
  (match Solver.solve [ masked; Sym.not_ shifted ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "contradiction declared Sat"
  | Solver.Unknown -> Alcotest.fail "should be proved Unsat");
  (* conflicting full assignments *)
  let p = var 8 "proto" in
  (match
     Solver.solve
       [ Sym.bin Ast.Eq p (Sym.of_int ~width:8 6); Sym.bin Ast.Eq p (Sym.of_int ~width:8 17) ]
   with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "6 != 17");
  (* a self-contradictory masked fact: value has bits outside the mask *)
  let q = var 16 "q" in
  (match
     Solver.solve
       [
         Sym.bin Ast.Eq
           (Sym.bin Ast.BAnd q (Sym.of_int ~width:16 0xFF00))
           (Sym.of_int ~width:16 0x00FF);
       ]
   with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "(q & 0xFF00) == 0x00FF is unsatisfiable");
  (* unsigned bounds that do not meet: basic_router's assertion
     obligation (ttl not positive on a path that required it above 1),
     and bounds that exclude every value of the width *)
  let ttl = var 8 "ttl" in
  let c n = Sym.of_int ~width:8 n in
  List.iter
    (fun cs ->
      match Solver.solve cs with
      | Solver.Unsat -> ()
      | Solver.Sat _ -> Alcotest.fail "contradictory bounds declared Sat"
      | Solver.Unknown -> Alcotest.fail "contradictory bounds should be proved Unsat")
    [
      [ Sym.not_ (Sym.bin Ast.Gt ttl (c 0)); Sym.not_ (Sym.bin Ast.Le ttl (c 1)) ];
      [ Sym.bin Ast.Lt ttl (c 0) ];
      [ Sym.bin Ast.Gt ttl (c 255) ];
      [ Sym.bin Ast.Ge ttl (c 10); Sym.bin Ast.Eq ttl (c 9) ];
    ];
  (match Solver.solve [ Sym.bin Ast.Ge ttl (c 10); Sym.not_ (Sym.bin Ast.Ge ttl (c 11)) ] with
  | Solver.Sat m ->
      check_bool "the one-point interval" true (Solver.holds m [ Sym.bin Ast.Eq ttl (c 10) ])
  | _ -> Alcotest.fail "ttl = 10 meets both bounds");
  (* and the consistent counterpart is satisfiable *)
  match Solver.solve [ masked; shifted ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "consistent pair should be Sat"

let test_solver_classifies_all_acl_paths () =
  let b = Programs.acl_firewall in
  let rt = Runtime.create () in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let run = Sexec.explore b.Programs.program rt in
  List.iter
    (fun p ->
      match Solver.solve p.Sexec.p_conds with
      | Solver.Sat _ | Solver.Unsat -> ()
      | Solver.Unknown -> Alcotest.fail "an acl path was left Unknown")
    run.Sexec.paths

let prop_solver_sound =
  (* any Sat answer must actually satisfy the constraints *)
  QCheck.Test.make ~count:100 ~name:"solver models verify"
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) bool)
    (fun (a, b, use_and) ->
      let x = var 16 "x" and y = var 16 "y" in
      let c1 = Sym.bin Ast.Eq x (Sym.of_int ~width:16 a) in
      let c2 =
        if use_and then
          Sym.bin Ast.Eq
            (Sym.bin Ast.BAnd y (Sym.of_int ~width:16 0xFF00))
            (Sym.of_int ~width:16 (b land 0xFF00))
        else Sym.bin Ast.Ge y (Sym.of_int ~width:16 b)
      in
      match Solver.solve [ c1; c2 ] with
      | Solver.Sat m -> Solver.holds m [ c1; c2 ]
      | Solver.Unsat -> false (* these are always satisfiable *)
      | Solver.Unknown -> true (* allowed, just incomplete *))

(* ---------------- Sexec ---------------- *)

let deploy (b : Programs.bundle) =
  let rt = Runtime.create () in
  (match Runtime.install_all b.Programs.program rt b.Programs.entries with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (b.Programs.program, rt)

let test_explore_router_paths () =
  let program, rt = deploy Programs.basic_router in
  let run = Sexec.explore program rt in
  check_bool "not truncated" false run.Sexec.truncated;
  let endings = List.map (fun p -> p.Sexec.p_ending) run.Sexec.paths in
  check_bool "has reject paths" true
    (List.exists (function Sexec.Rejected _ -> true | _ -> false) endings);
  check_bool "has forwarded paths" true (List.mem Sexec.Forwarded endings);
  check_bool "has drop paths" true
    (List.exists (function Sexec.Dropped _ -> true | _ -> false) endings)

let test_explore_counts_table_branches () =
  let program, rt = deploy Programs.basic_router in
  let run = Sexec.explore program rt in
  (* three entries + default = 4 table outcomes on the routed paths *)
  let actions =
    List.sort_uniq compare
      (List.concat_map (fun p -> p.Sexec.p_tables) run.Sexec.paths)
  in
  check_bool "set_nexthop branch" true (List.mem ("ipv4_lpm", "set_nexthop") actions);
  check_bool "default branch" true (List.mem ("ipv4_lpm", "drop_packet") actions)

let test_witness_replays_on_interpreter () =
  (* every satisfiable reject path's witness must actually be rejected by
     the reference interpreter *)
  let program, rt = deploy Programs.basic_router in
  let findings = Check.reject_reachable program rt in
  check_bool "some reject witnesses" true
    (List.exists (fun f -> f.Check.f_witness <> None) findings);
  List.iter
    (fun f ->
      match f.Check.f_witness with
      | Some (port, bits) -> (
          match (Interp.process program rt ~ingress_port:port bits).Interp.result with
          | Interp.Dropped reason ->
              check_bool "dropped at parser" true
                (String.length reason >= 6 && String.sub reason 0 6 = "parser")
          | Interp.Forwarded _ -> Alcotest.fail "witness was forwarded")
      | None -> ())
    findings

(* ---------------- Check ---------------- *)

let test_rejected_are_dropped_holds_on_spec () =
  let program, rt = deploy Programs.parser_guard in
  let f = Check.rejected_are_dropped program rt in
  Alcotest.(check string) "verdict" "HOLDS" (Check.verdict_to_string f.Check.f_verdict)

let test_ttl_property_distinguishes_buggy_router () =
  let program, rt = deploy Programs.basic_router in
  let good = Check.ttl_decremented program rt in
  Alcotest.(check string) "good router" "HOLDS"
    (Check.verdict_to_string good.Check.f_verdict);
  let program, rt = deploy Programs.buggy_router in
  let bad = Check.ttl_decremented program rt in
  Alcotest.(check string) "buggy router" "VIOLATED"
    (Check.verdict_to_string bad.Check.f_verdict);
  (* replay the witness: TTL must come out unchanged *)
  match bad.Check.f_witness with
  | Some (port, bits) -> (
      let in_ttl = Bitutil.Bitstring.extract bits ~off:(112 + 64) ~width:8 in
      match (Interp.process program rt ~ingress_port:port bits).Interp.result with
      | Interp.Forwarded (_, out) ->
          let out_ttl = Bitutil.Bitstring.extract out ~off:(112 + 64) ~width:8 in
          Alcotest.(check int64) "ttl unchanged on wire" in_ttl out_ttl
      | Interp.Dropped r -> Alcotest.failf "witness dropped: %s" r)
  | None -> Alcotest.fail "no witness for the TTL bug"

let test_forward_requires_ipv4 () =
  let program, rt = deploy Programs.basic_router in
  let f = Check.forward_requires_header ~header:"ipv4" program rt in
  Alcotest.(check string) "router never forwards non-ipv4" "HOLDS"
    (Check.verdict_to_string f.Check.f_verdict);
  (* parser_guard punts ARP without ipv4: the property is (by design) violated *)
  let program, rt = deploy Programs.parser_guard in
  let f = Check.forward_requires_header ~header:"ipv4" program rt in
  Alcotest.(check string) "guard punts arp" "VIOLATED"
    (Check.verdict_to_string f.Check.f_verdict)

let test_assertion_violation_found () =
  let program =
    {
      Programs.reflector.Programs.program with
      Ast.p_name = "bad_assert";
      p_ingress =
        [
          Dsl.assert_
            Dsl.(fld "eth" "ethertype" <>: const ~width:16 0x1234)
            "no calc traffic expected";
          Dsl.set_std Ast.Egress_spec (Dsl.std Ast.Ingress_port);
        ];
    }
  in
  let rt = Runtime.create () in
  match Check.assertions program rt with
  | [ f ] ->
      Alcotest.(check string) "violated" "VIOLATED" (Check.verdict_to_string f.Check.f_verdict)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* src = 0xAAAAAAAAAAAD violates the assertion (·3 mod 2^48 = 7), but no
   mined candidate or random draw finds it: a search that gives up must
   say Unknown, never Holds *)
let test_assertion_unresolved_is_unknown () =
  let program =
    {
      Programs.reflector.Programs.program with
      Ast.p_name = "mul_assert";
      p_ingress =
        [
          Dsl.assert_
            Dsl.(Ast.Bin (Ast.Mul, fld "eth" "src", const ~width:48 3) <>: const ~width:48 7)
            "src times three is never seven";
          Dsl.set_std Ast.Egress_spec (Dsl.std Ast.Ingress_port);
        ];
    }
  in
  match Check.assertions program (Runtime.create ()) with
  | [ f ] ->
      Alcotest.(check string) "unresolved" "UNKNOWN" (Check.verdict_to_string f.Check.f_verdict);
      Alcotest.(check string) "detail counts the obligations"
        "1 of 1 obligation(s) unresolved within the search budget" f.Check.f_detail
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_assertion_holds_on_router () =
  let program, rt = deploy Programs.basic_router in
  List.iter
    (fun f ->
      Alcotest.(check string) "router asserts hold" "HOLDS"
        (Check.verdict_to_string f.Check.f_verdict))
    (Check.assertions program rt)

let test_action_coverage () =
  let program, rt = deploy Programs.basic_router in
  let findings = Check.action_coverage program rt in
  check_int "two actions" 2 (List.length findings);
  List.iter
    (fun f ->
      Alcotest.(check string) ("coverage: " ^ f.Check.f_property) "HOLDS"
        (Check.verdict_to_string f.Check.f_verdict))
    findings

let test_dead_action_detected () =
  (* an action listed on the table but never selected: no entry uses it and
     it is not the default *)
  let b = Programs.l2_switch in
  let rt = Runtime.create () in
  (* install only dmac entries, never smac: src_known becomes dead *)
  List.iter
    (fun (t, e) ->
      if String.equal t "dmac" then P4ir.Runtime.add_exn b.Programs.program rt ~table:t e)
    b.Programs.entries;
  let findings = Check.action_coverage b.Programs.program rt in
  let dead =
    List.filter
      (fun f ->
        f.Check.f_verdict = Check.Violated
        && f.Check.f_property = "table smac: action src_known reachable")
      findings
  in
  check_int "src_known is dead" 1 (List.length dead)

let test_egress_port_bounded () =
  let program, rt = deploy Programs.basic_router in
  let f = Check.egress_port_bounded ~ports:4 program rt in
  Alcotest.(check string) "router stays physical" "HOLDS"
    (Check.verdict_to_string f.Check.f_verdict);
  let program, rt = deploy Programs.parser_guard in
  let f = Check.egress_port_bounded ~ports:4 program rt in
  Alcotest.(check string) "cpu punt flagged" "VIOLATED"
    (Check.verdict_to_string f.Check.f_verdict);
  (* whitelisting the CPU port makes it pass *)
  let f = Check.egress_port_bounded ~ports:4 ~allowed:[ 63 ] program rt in
  Alcotest.(check string) "cpu punt allow-listed" "HOLDS"
    (Check.verdict_to_string f.Check.f_verdict);
  (* witness replay: the violating packet really goes to port 63 *)
  let program, rt = deploy Programs.parser_guard in
  match (Check.egress_port_bounded ~ports:4 program rt).Check.f_witness with
  | Some (port, bits) -> (
      match (Interp.process program rt ~ingress_port:port bits).Interp.result with
      | Interp.Forwarded (63, _) -> ()
      | Interp.Forwarded (p, _) -> Alcotest.failf "witness went to %d" p
      | Interp.Dropped r -> Alcotest.failf "witness dropped: %s" r)
  | None -> Alcotest.fail "no witness"

let test_invalid_header_read_detected () =
  (* a firewall that reads tcp.dst_port without checking tcp validity: on
     the UDP path the read silently yields 0 *)
  let program =
    {
      Programs.acl_firewall.Programs.program with
      Ast.p_name = "careless_acl";
      p_ingress =
        [
          (* BUG: no validity guard *)
          Dsl.set_meta "l4_dport" (Dsl.fld "tcp" "dst_port");
          Dsl.if_ (Dsl.valid "ipv4")
            [ Ast.Apply "acl";
              Dsl.if_ Dsl.(meta "allow" ==: const ~width:1 1)
                [ Ast.Apply "ipv4_lpm" ] [ Ast.MarkToDrop ] ]
            [ Ast.MarkToDrop ];
        ];
    }
  in
  let rt = Runtime.create () in
  (match
     Runtime.install_all program rt Programs.acl_firewall.Programs.entries
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let f = Check.no_invalid_header_reads program rt in
  Alcotest.(check string) "careless read flagged" "VIOLATED"
    (Check.verdict_to_string f.Check.f_verdict);
  (* the library programs are all clean *)
  List.iter
    (fun (b : Programs.bundle) ->
      let rt = Runtime.create () in
      (match Runtime.install_all b.Programs.program rt b.Programs.entries with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let f = Check.no_invalid_header_reads b.Programs.program rt in
      Alcotest.(check string)
        (b.Programs.program.Ast.p_name ^ " clean")
        "HOLDS"
        (Check.verdict_to_string f.Check.f_verdict))
    [ Programs.basic_router; Programs.acl_firewall; Programs.mpls_tunnel ]

(* ---------------- Testgen ---------------- *)

let test_testgen_covers_router_paths () =
  let program, rt = deploy Programs.basic_router in
  let r = Testgen.generate program rt in
  check_bool "coverage complete" true (Testgen.coverage_complete r);
  check_int "eight paths" 8 r.Testgen.tg_stats.Testgen.tg_paths;
  check_int "one vector per path" 8 (List.length r.Testgen.tg_vectors);
  (* the expectations span all three observable fates *)
  let expects = List.map (fun v -> v.Testgen.v_expected) r.Testgen.tg_vectors in
  check_bool "forward expected somewhere" true
    (List.exists (function Testgen.Forward _ -> true | _ -> false) expects);
  check_bool "ingress drop expected somewhere" true (List.mem (Testgen.Drop "ingress") expects);
  check_bool "parser reject expected somewhere" true
    (List.mem (Testgen.Drop "parser:Reject") expects)

let test_testgen_report_golden () =
  let program, rt = deploy Programs.basic_router in
  let ic = open_in "testgen_report.golden" in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "report matches golden" golden
    (Testgen.render (Testgen.generate program rt))

(* every witness byte of the library, pinned: one line per program and
   solver seed (the default, then 1–8) with the vector count and one MD5
   over every vector's path, ingress port, expectation and packet bytes *)
let witness_lines () =
  List.concat_map
    (fun (b : Programs.bundle) ->
      let program, rt = deploy b in
      List.map
        (fun seed ->
          let r =
            Testgen.generate ?seed ~ingress_port:Netdebug.Harness.generator_port program rt
          in
          let buf = Buffer.create 1024 in
          List.iter
            (fun (v : Testgen.vector) ->
              Printf.bprintf buf "%d %d %s %d:%s\n" v.Testgen.v_path v.Testgen.v_ingress_port
                (Testgen.expected_str v.Testgen.v_expected)
                (Bitutil.Bitstring.length v.Testgen.v_packet)
                (Bitutil.Bitstring.to_hex v.Testgen.v_packet))
            r.Testgen.tg_vectors;
          Printf.sprintf "%s seed=%s vectors=%d md5=%s" program.Ast.p_name
            (Option.fold ~none:"default" ~some:string_of_int seed)
            (List.length r.Testgen.tg_vectors)
            (Digest.to_hex (Digest.string (Buffer.contents buf))))
        (None :: List.init 8 (fun i -> Some (i + 1))))
    Programs.all

let test_testgen_witness_golden () =
  let ic = open_in "testgen_witness.golden" in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check (list string)) "witness digests match golden"
    (String.split_on_char '\n' (String.trim golden))
    (witness_lines ())

(* the heart of the oracle: every emitted vector's expected observation is
   derived from the symbolic path alone, so replaying the packet on the
   reference interpreter — both engines — must reproduce it exactly, for
   any solver seed, and the report must not depend on [jobs] *)
let prop_testgen_oracle_matches_interp =
  QCheck.Test.make ~count:10 ~name:"testgen expectations replay on both engines"
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.for_all
        (fun bundle ->
          let program, rt = deploy bundle in
          let r = Testgen.generate ~seed ~jobs:1 program rt in
          let r4 = Testgen.generate ~seed ~jobs:4 program rt in
          if not (String.equal (Testgen.render r) (Testgen.render r4)) then
            QCheck.Test.fail_report "jobs=4 report differs from jobs=1";
          List.for_all
            (fun (v : Testgen.vector) ->
              v.Testgen.v_state_dependent
              || List.for_all
                   (fun engine ->
                     let got =
                       (Interp.process ~engine program rt
                          ~ingress_port:v.Testgen.v_ingress_port v.Testgen.v_packet)
                         .Interp.result
                     in
                     let got_str =
                       match got with
                       | Interp.Forwarded (p, _) -> Printf.sprintf "forward to port %d" p
                       | Interp.Dropped reason -> Printf.sprintf "drop (%s)" reason
                     in
                     String.equal (Testgen.expected_str v.Testgen.v_expected) got_str
                     || QCheck.Test.fail_reportf "path %d: expected %s, interp says %s"
                          v.Testgen.v_path
                          (Testgen.expected_str v.Testgen.v_expected)
                          got_str)
                   [ `Staged; `Tree ])
            r.Testgen.tg_vectors)
        [ Programs.basic_router; Programs.acl_firewall; Programs.parser_guard ])

let test_run_all_battery () =
  let program, rt = deploy Programs.basic_router in
  let findings = Check.run_all program rt in
  check_bool "battery is non-trivial" true (List.length findings >= 5);
  check_bool "no violations on the good router" true
    (List.for_all (fun f -> f.Check.f_verdict <> Check.Violated) findings)

let () =
  Alcotest.run "symexec"
    [
      ( "sym",
        [
          Alcotest.test_case "constant folding" `Quick test_sym_constant_folding;
          Alcotest.test_case "width" `Quick test_sym_width;
          Alcotest.test_case "eval" `Quick test_sym_eval;
          Alcotest.test_case "vars dedup" `Quick test_sym_vars_dedup;
          Alcotest.test_case "interning" `Quick test_sym_interning;
          QCheck_alcotest.to_alcotest prop_compile_matches_eval;
        ] );
      ( "solver",
        [
          Alcotest.test_case "exact constraint" `Quick test_solver_exact_constraint;
          Alcotest.test_case "masked constraint" `Quick test_solver_masked_constraint;
          Alcotest.test_case "lpm shape" `Quick test_solver_lpm_shape;
          Alcotest.test_case "conjunction" `Quick test_solver_conjunction_and_negation;
          Alcotest.test_case "trivial cases" `Quick test_solver_trivial;
          Alcotest.test_case "unsat detection" `Quick test_solver_unsat_detection;
          Alcotest.test_case "acl paths fully classified" `Quick
            test_solver_classifies_all_acl_paths;
          QCheck_alcotest.to_alcotest prop_solver_sound;
        ] );
      ( "sexec",
        [
          Alcotest.test_case "router paths" `Quick test_explore_router_paths;
          Alcotest.test_case "table branches" `Quick test_explore_counts_table_branches;
          Alcotest.test_case "witness replay" `Quick test_witness_replays_on_interpreter;
        ] );
      ( "check",
        [
          Alcotest.test_case "rejected-are-dropped holds on spec" `Quick
            test_rejected_are_dropped_holds_on_spec;
          Alcotest.test_case "ttl property vs buggy router" `Quick
            test_ttl_property_distinguishes_buggy_router;
          Alcotest.test_case "forward requires ipv4" `Quick test_forward_requires_ipv4;
          Alcotest.test_case "assertion violation found" `Quick test_assertion_violation_found;
          Alcotest.test_case "unresolved assertion is unknown" `Quick
            test_assertion_unresolved_is_unknown;
          Alcotest.test_case "router assertions hold" `Quick test_assertion_holds_on_router;
          Alcotest.test_case "action coverage" `Quick test_action_coverage;
          Alcotest.test_case "dead action detected" `Quick test_dead_action_detected;
          Alcotest.test_case "egress port bounded" `Quick test_egress_port_bounded;
          Alcotest.test_case "invalid header read" `Quick test_invalid_header_read_detected;
          Alcotest.test_case "run_all battery" `Quick test_run_all_battery;
        ] );
      ( "testgen",
        [
          Alcotest.test_case "covers router paths" `Quick test_testgen_covers_router_paths;
          Alcotest.test_case "report golden" `Quick test_testgen_report_golden;
          Alcotest.test_case "witness golden" `Quick test_testgen_witness_golden;
          QCheck_alcotest.to_alcotest prop_testgen_oracle_matches_interp;
        ] );
    ]
