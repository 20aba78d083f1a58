(* Differential property tests for the classifier: it must be
   observationally identical to the [Entry.select] scan — same winner,
   same misses — over arbitrary entry sets of the shape [Runtime.add]
   admits and keys of the declared widths, under both settings of the
   degrade-ternary quirk; and incremental insert/remove must agree with a
   classifier rebuilt from scratch over the surviving entries. *)

module Value = P4ir.Value
module Entry = P4ir.Entry
module Classifier = P4ir.Classifier
module Runtime = P4ir.Runtime

(* ---------------- scenario generator ---------------- *)

type scenario = {
  kws : int array;
  entries : Entry.t array;  (* initial install, ids = indices *)
  extra : Entry.t array;  (* fed in by incremental-op inserts *)
  probes : Value.t list list;
  ops : int list;  (* even = insert next extra, odd = remove a live entry *)
  degrade : bool;
}

let key_value = function Entry.Exact_v v | Entry.Lpm_v (v, _) | Entry.Ternary_v (v, _) -> v

let gen_scenario =
  let open QCheck.Gen in
  let* nk = int_range 1 3 in
  let* kws =
    (* Mostly one-word widths; the two-word widths 63 and 64 are each
       2 draws in 13. *)
    array_repeat nk
      (frequency [ (6, int_range 1 32); (3, int_range 33 62); (2, return 63); (2, return 64) ])
  in
  (* Small values collide, so equal rows and install-order ties come up. *)
  let gen_value w =
    map (Value.make ~width:w) (frequency [ (3, ui64); (1, map Int64.of_int (int_bound 3)) ])
  in
  let gen_mkey w =
    let* v = gen_value w in
    frequency
      [
        (3, return (Entry.exact v));
        (3, map (Entry.lpm v) (int_range 0 w));
        (3, map (Entry.ternary v) (gen_value w));
      ]
  in
  let gen_entry =
    let* keys = flatten_l (Array.to_list (Array.map gen_mkey kws)) in
    let* prio = int_bound 3 in
    return (Entry.make ~priority:prio ~keys ~action:"a" ())
  in
  let* n_entries = int_bound 30 in
  let* entries = array_repeat n_entries gen_entry in
  let* n_extra = int_bound 15 in
  let* extra = array_repeat n_extra gen_entry in
  (* A probe is random, or an entry's key values with the odd bit flipped,
     so that wide keys hit, and miss by one bit in either word. *)
  let near mk =
    let v = key_value mk in
    let w = Value.width v in
    frequency
      [
        (1, return v);
        ( 1,
          map
            (fun b -> Value.make ~width:w (Int64.logxor (Value.to_int64 v) (Int64.shift_left 1L b)))
            (int_bound (w - 1)) );
      ]
  in
  let all = Array.append entries extra in
  let random_probe = flatten_l (Array.to_list (Array.map gen_value kws)) in
  let gen_probe =
    if Array.length all = 0 then random_probe
    else
      frequency
        [
          (1, random_probe);
          ( 2,
            int_bound (Array.length all - 1) >>= fun i ->
            flatten_l (List.map near all.(i).Entry.keys) );
        ]
  in
  let* probes = list_size (int_range 1 25) gen_probe in
  let* ops = list_size (int_bound 40) (int_bound 10_000) in
  let* degrade = bool in
  return { kws; entries; extra; probes; ops; degrade }

let print_scenario sc =
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  Format.fprintf fmt "kws=[%s] degrade=%b@\n"
    (String.concat ";" (Array.to_list (Array.map string_of_int sc.kws)))
    sc.degrade;
  Array.iteri (fun i e -> Format.fprintf fmt "  e%d: %a@\n" i Entry.pp e) sc.entries;
  Array.iteri
    (fun i e -> Format.fprintf fmt "  x%d: %a@\n" i Entry.pp e)
    sc.extra;
  List.iteri
    (fun i p ->
      Format.fprintf fmt "  probe%d: [%a]@\n" i
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
           Value.pp)
        p)
    sc.probes;
  Format.fprintf fmt "  ops=[%s]@."
    (String.concat ";" (List.map string_of_int sc.ops));
  Buffer.contents b

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

(* The winner must be the same physical entry: [Entry.select] returns the
   element of the list, the classifier an id indexing the same array. *)
let agree resolve want got =
  match want with None -> got = -1 | Some e -> got >= 0 && resolve got == e

let prop_differential =
  QCheck.Test.make ~count:400 ~name:"classifier = Entry.select (outcome parity)"
    arb_scenario (fun sc ->
      let c = Classifier.create ~kws:sc.kws ~degrade:sc.degrade in
      Array.iteri (fun id e -> Classifier.insert c id e) sc.entries;
      let entries = Array.to_list sc.entries in
      List.for_all
        (fun probe ->
          agree
            (fun id -> sc.entries.(id))
            (Entry.select ~degrade_ternary_to_exact:sc.degrade entries probe)
            (Classifier.find_values c probe))
        sc.probes)

(* Incremental maintenance: after an arbitrary interleaving of inserts and
   removes, the patched-in-place classifier must answer like (a) the scan
   over the surviving entries and (b) a classifier rebuilt from scratch
   over the same survivors with the same ids. *)
let prop_incremental =
  QCheck.Test.make ~count:300 ~name:"incremental insert/remove = rebuild"
    arb_scenario (fun sc ->
      let store = Hashtbl.create 64 in
      let resolve id = Hashtbl.find store id in
      let c = Classifier.create ~kws:sc.kws ~degrade:sc.degrade in
      let live = ref [] in  (* (id, entry), descending id *)
      let next = ref 0 in
      let insert e =
        let id = !next in
        incr next;
        Hashtbl.replace store id e;
        Classifier.insert c id e;
        live := (id, e) :: !live
      in
      Array.iter insert sc.entries;
      let n_extra = ref 0 in
      List.iter
        (fun code ->
          if (code land 1 = 0 || !live = []) && !n_extra < Array.length sc.extra
          then begin
            insert sc.extra.(!n_extra);
            incr n_extra
          end
          else if !live <> [] then begin
            let id, e = List.nth !live (code lsr 1 mod List.length !live) in
            Classifier.remove c id e;
            Hashtbl.remove store id;
            live := List.filter (fun (i, _) -> i <> id) !live
          end)
        sc.ops;
      (* Survivors in install order = ascending id. *)
      let surv = List.rev !live in
      let c2 = Classifier.create ~kws:sc.kws ~degrade:sc.degrade in
      List.iter (fun (id, e) -> Classifier.insert c2 id e) surv;
      let entries = List.map snd surv in
      Classifier.size c = Classifier.size c2
      && List.for_all
           (fun probe ->
             let got = Classifier.find_values c probe in
             agree resolve (Entry.select ~degrade_ternary_to_exact:sc.degrade entries probe) got
             && got = Classifier.find_values c2 probe)
           sc.probes)

(* ---------------- deterministic unit tests ---------------- *)

let v32 x = Value.make ~width:32 (Int64.of_int x)

let test_wide_keys () =
  (* 64-bit keys take two words per key, on the same lookup path. *)
  let entries =
    [|
      Entry.make
        ~keys:[ Entry.lpm (Value.make ~width:64 0xdead_0000_0000_0000L) 16 ]
        ~action:"a" ();
      Entry.make
        ~keys:[ Entry.exact (Value.make ~width:64 0xdead_beef_0000_0001L) ]
        ~action:"a" ();
    |]
  in
  let c = Classifier.create ~kws:[| 64 |] ~degrade:false in
  Array.iteri (fun id e -> Classifier.insert c id e) entries;
  let probe = [ Value.make ~width:64 0xdead_beef_0000_0001L ] in
  Alcotest.(check int) "exact beats shorter prefix" 1
    (Classifier.find_values c probe);
  Alcotest.(check int) "prefix-only hit" 0
    (Classifier.find_values c [ Value.make ~width:64 0xdead_0000_1234_5678L ])

let test_unknown_id_remove () =
  (* Removing an id that was never inserted leaves the entry that shares
     its row in place. *)
  let e = Entry.make ~keys:[ Entry.exact (v32 5) ] ~action:"a" () in
  let c = Classifier.create ~kws:[| 32 |] ~degrade:false in
  Classifier.insert c 0 e;
  Classifier.remove c 7 e;
  Alcotest.(check int) "size" 1 (Classifier.size c);
  Alcotest.(check int) "still found" 0 (Classifier.find_values c [ v32 5 ])

let test_mismatched_probe () =
  (* Probe widths other than the key's come only from an ill-typed
     program: refused loudly, never answered. *)
  let c = Classifier.create ~kws:[| 32 |] ~degrade:false in
  Classifier.insert c 0 (Entry.make ~keys:[ Entry.lpm (v32 0x0a000000) 8 ] ~action:"a" ());
  Alcotest.(check int) "hit" 0 (Classifier.find_values c [ v32 0x0a01_0203 ]);
  List.iter
    (fun probe ->
      match Classifier.find_values c probe with
      | exception Invalid_argument _ -> ()
      | id -> Alcotest.failf "answered %d" id)
    [ [ Value.make ~width:16 10L ]; []; [ v32 1; v32 2 ] ]

let test_runtime_churn () =
  (* Runtime-level integration over the synthetic route table: lookups
     against the live classifier must track a plain mirror list under
     interleaved adds and removes. *)
  let rt = Runtime.create () in
  let n0 = 2_000 and extra = 500 in
  let pool = Routes.prefixes ~seed:21 ~n:(n0 + extra) in
  let mirror = ref [] in  (* (pool index, entry), descending install *)
  let install i =
    let addr, len = pool.(i) in
    let e = Routes.entry ~addr ~len in
    Runtime.add_exn Routes.program rt ~table:Routes.table_name e;
    mirror := (i, e) :: !mirror
  in
  for i = 0 to n0 - 1 do
    install i
  done;
  let g = Bitutil.Prng.create 77 in
  let check_addr addr =
    let key = Routes.key_of_addr addr in
    let got =
      Runtime.lookup rt ~table:Routes.table_name ~degrade_ternary_to_exact:false
        key
    in
    let want = Entry.select (List.rev_map snd !mirror) key in
    (* rev_map reverses: mirror is descending install, select wants
       ascending. *)
    Alcotest.(check bool) "lookup matches mirror scan" true (got = want)
  in
  let probe_round () =
    for _ = 1 to 20 do
      let addr =
        if Bitutil.Prng.int g 10 < 8 && !mirror <> [] then
          let i, _ = List.nth !mirror (Bitutil.Prng.int g (List.length !mirror)) in
          let addr, len = pool.(i) in
          addr lor (Int64.to_int (Bitutil.Prng.bits g ~width:32)
                    land lnot (Routes.mask_int len) land 0xffffffff)
        else Int64.to_int (Bitutil.Prng.bits g ~width:32)
      in
      check_addr addr
    done
  in
  probe_round ();
  (* Churn: remove a random live route, install a fresh one. *)
  for t = 0 to extra - 1 do
    let victim = Bitutil.Prng.int g (List.length !mirror) in
    let vi, ve = List.nth !mirror victim in
    (match Runtime.remove Routes.program rt ~table:Routes.table_name ve with
    | Ok () -> ()
    | Error m -> Alcotest.failf "remove: %s" m);
    mirror := List.filter (fun (i, _) -> i <> vi) !mirror;
    install (n0 + t);
    if t mod 100 = 0 then probe_round ()
  done;
  probe_round ();
  Alcotest.(check int) "entry count tracks mirror" (List.length !mirror)
    (Runtime.entry_count rt Routes.table_name);
  (* Removing an uninstalled entry reports an error, not a crash. *)
  (match
     Runtime.remove Routes.program rt ~table:Routes.table_name
       (Routes.entry ~addr:0x7f000000 ~len:32)
   with
  | Ok () -> Alcotest.fail "remove of absent entry succeeded"
  | Error _ -> ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_differential; prop_incremental ]

let () =
  Alcotest.run "classifier"
    [
      ("properties", qsuite);
      ( "units",
        [
          Alcotest.test_case "wide keys" `Quick test_wide_keys;
          Alcotest.test_case "mismatched probe raises" `Quick test_mismatched_probe;
          Alcotest.test_case "unknown id remove is a no-op" `Quick test_unknown_id_remove;
          Alcotest.test_case "runtime churn" `Quick test_runtime_churn;
        ] );
    ]
