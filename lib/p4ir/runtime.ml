(* Per-table slots hold entries in a growable array indexed by local entry
   id. Ids are allocated monotonically in install order and never reused —
   not even across [clear] — so install-order tie-breaks reduce to id
   order and engine-side caches keyed on id (the staged engine's bound
   cache) can never alias a stale entry. A structural (priority, keys)
   index gives O(1) removal of the earliest-installed matching entry, and
   each slot lazily hosts the two {!Classifier} variants (per
   degrade_ternary_to_exact setting) that both engines share. A slot works
   its table's key widths out once per program and uses them both to check
   entries and to shape its classifiers, so the two always agree. *)

type slot = {
  s_name : string;
  mutable s_arr : Entry.t option array;  (* by local id; None = removed *)
  mutable s_next : int;  (* next id to allocate; never reset *)
  mutable s_count : int;  (* live entries *)
  s_index : (int * Entry.mkey list, int list) Hashtbl.t;  (* live ids, ascending *)
  mutable s_prog : Ast.program option;  (* the program [s_kws] was worked out for *)
  mutable s_kws : int array;  (* key widths, in key order *)
  mutable s_cls : Classifier.t option;
  mutable s_cls_degrade : Classifier.t option;
}

type t = {
  tbl : (string, slot) Hashtbl.t;
  mutable hook : (string -> int -> unit) option;  (* table, update ns *)
  mutable hook_clock : unit -> int64;
}

type tslot = slot

let create () =
  { tbl = Hashtbl.create 8; hook = None; hook_clock = (fun () -> 0L) }

let new_slot name =
  {
    s_name = name;
    s_arr = [||];
    s_next = 0;
    s_count = 0;
    s_index = Hashtbl.create 16;
    s_prog = None;
    s_kws = [||];
    s_cls = None;
    s_cls_degrade = None;
  }

let slot t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None ->
      let s = new_slot name in
      Hashtbl.add t.tbl name s;
      s

let set_update_hook t ?clock f =
  t.hook <- Some f;
  t.hook_clock <- (match clock with Some c -> c | None -> fun () -> 0L)

(* Wrap one successful control-plane mutation with the update-latency
   hook. Mutations are rare next to lookups; when no hook is installed
   this is a single branch. *)
let timed t name f =
  match t.hook with
  | None -> f ()
  | Some hook ->
      let t0 = t.hook_clock () in
      let r = f () in
      hook name (Int64.to_int (Int64.sub (t.hook_clock ()) t0));
      r

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* The slot's key widths for [program]: each key expression's
   {!Typecheck.expr_width}, worked out again only when another program
   asks. *)
let key_widths program s (tbl : Ast.table) =
  match s.s_prog with
  | Some p when p == program -> Ok ()
  | _ ->
      let rec go acc i = function
        | [] ->
            s.s_prog <- Some program;
            s.s_kws <- Array.of_list (List.rev acc);
            Ok ()
        | (expr, _) :: rest -> (
            match Typecheck.expr_width program ~params:[] expr with
            | Error m -> fail "table %s: key %d: %s" tbl.Ast.t_name i m
            | Ok w -> go (w :: acc) (i + 1) rest)
      in
      go [] 1 tbl.Ast.t_keys

(* Each key value must be of its key's match kind and width; an LPM
   prefix must fit in the key and a ternary mask must be as wide as it. *)
let rec keys_ok table kws i keys decls =
  match (keys, decls) with
  | [], _ | _, [] -> Ok ()
  | k :: ks, (_, kind) :: ds -> (
      let w = kws.(i - 1) in
      match (k, kind) with
      | ( Entry.Exact_v v, Ast.Exact
        | Entry.Lpm_v (v, _), Ast.Lpm
        | Entry.Ternary_v (v, _), Ast.Ternary )
        when Value.width v <> w ->
          fail "table %s: key %d: expected a %d-bit value, got %d bits" table i w (Value.width v)
      | Entry.Lpm_v (_, len), Ast.Lpm when len < 0 || len > w ->
          fail "table %s: key %d: lpm prefix length %d out of range 0..%d" table i len w
      | Entry.Ternary_v (_, m), Ast.Ternary when Value.width m <> w ->
          fail "table %s: key %d: expected a %d-bit mask, got %d bits" table i w (Value.width m)
      | Entry.Exact_v _, Ast.Exact | Entry.Lpm_v _, Ast.Lpm | Entry.Ternary_v _, Ast.Ternary ->
          keys_ok table kws (i + 1) ks ds
      | Entry.Exact_v _, (Ast.Lpm | Ast.Ternary)
      | Entry.Lpm_v _, (Ast.Exact | Ast.Ternary)
      | Entry.Ternary_v _, (Ast.Exact | Ast.Lpm) ->
          fail "table %s: match-kind mismatch" table)

let validate program s ~table (e : Entry.t) =
  match Ast.find_table program table with
  | None -> fail "table %s: not declared" table
  | Some tbl -> (
      let open Ast in
      if s.s_count >= tbl.t_size then fail "table %s: capacity %d exceeded" table tbl.t_size
      else if List.length e.Entry.keys <> List.length tbl.t_keys then
        fail "table %s: expected %d keys, got %d" table (List.length tbl.t_keys)
          (List.length e.Entry.keys)
      else if not (List.mem e.Entry.action tbl.t_actions) then
        fail "table %s: action %s not permitted" table e.Entry.action
      else
        match key_widths program s tbl with
        | Error _ as err -> err
        | Ok () -> (
            match keys_ok table s.s_kws 1 e.Entry.keys tbl.t_keys with
            | Error _ as err -> err
            | Ok () -> (
                match Ast.find_action program e.Entry.action with
                | None -> fail "action %s: not declared" e.Entry.action
                | Some act ->
                    if List.length e.Entry.args <> List.length act.a_params then
                      fail "action %s: expected %d args, got %d" e.Entry.action
                        (List.length act.a_params) (List.length e.Entry.args)
                    else if
                      not
                        (List.for_all2
                           (fun arg (p : field_decl) -> Value.width arg = p.f_width)
                           e.Entry.args act.a_params)
                    then fail "action %s: argument width mismatch" e.Entry.action
                    else Ok ())))

let key_sig (e : Entry.t) = (e.Entry.priority, e.Entry.keys)

let cls_iter s f =
  (match s.s_cls with Some c -> f c | None -> ());
  match s.s_cls_degrade with Some c -> f c | None -> ()

let add program t ~table e =
  let s = slot t table in
  match validate program s ~table e with
  | Error _ as err -> err
  | Ok () ->
      timed t table (fun () ->
          let id = s.s_next in
          if id >= Array.length s.s_arr then begin
            let narr = Array.make (max 16 (2 * (id + 1))) None in
            Array.blit s.s_arr 0 narr 0 (Array.length s.s_arr);
            s.s_arr <- narr
          end;
          s.s_arr.(id) <- Some e;
          s.s_next <- id + 1;
          s.s_count <- s.s_count + 1;
          let ks = key_sig e in
          let ids = match Hashtbl.find_opt s.s_index ks with Some l -> l | None -> [] in
          Hashtbl.replace s.s_index ks (ids @ [ id ]);
          cls_iter s (fun c -> Classifier.insert c id e);
          Ok ())

let add_exn program t ~table e =
  match add program t ~table e with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime.add_exn: " ^ msg)

let remove program t ~table (e : Entry.t) =
  match Ast.find_table program table with
  | None -> Error (Printf.sprintf "table %s: not declared" table)
  | Some _ -> (
      match Hashtbl.find_opt t.tbl table with
      | None -> Error (Printf.sprintf "table %s: no matching entry" table)
      | Some s -> (
          match Hashtbl.find_opt s.s_index (key_sig e) with
          | None | Some [] -> Error (Printf.sprintf "table %s: no matching entry" table)
          | Some (id :: rest) ->
              timed t table (fun () ->
                  let stored =
                    match s.s_arr.(id) with Some x -> x | None -> assert false
                  in
                  s.s_arr.(id) <- None;
                  s.s_count <- s.s_count - 1;
                  if rest = [] then Hashtbl.remove s.s_index (key_sig e)
                  else Hashtbl.replace s.s_index (key_sig e) rest;
                  cls_iter s (fun c -> Classifier.remove c id stored);
                  Ok ())))

let install_all program t pairs =
  let rec go = function
    | [] -> Ok ()
    | (table, e) :: rest -> (
        match add program t ~table e with Ok () -> go rest | Error _ as err -> err)
  in
  go pairs

let slot_entries s =
  let acc = ref [] in
  for i = s.s_next - 1 downto 0 do
    match s.s_arr.(i) with Some e -> acc := e :: !acc | None -> ()
  done;
  !acc

let entries t name =
  match Hashtbl.find_opt t.tbl name with Some s -> slot_entries s | None -> []

let entry_count t name =
  match Hashtbl.find_opt t.tbl name with Some s -> s.s_count | None -> 0

let clear_slot s =
  for i = 0 to s.s_next - 1 do
    s.s_arr.(i) <- None
  done;
  s.s_count <- 0;
  Hashtbl.reset s.s_index;
  cls_iter s Classifier.clear

let clear_table t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> timed t name (fun () -> clear_slot s)
  | None -> ()

(* Slots stay in place (ids keep growing) so engine handles cached against
   them survive a wipe. *)
let clear t = Hashtbl.iter (fun _ s -> clear_slot s) t.tbl

let tables t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort String.compare

(* ---------------- classifier hosting ---------------- *)

let build_classifier s ~degrade =
  let c = Classifier.create ~kws:s.s_kws ~degrade in
  for id = 0 to s.s_next - 1 do
    match s.s_arr.(id) with Some e -> Classifier.insert c id e | None -> ()
  done;
  (if degrade then s.s_cls_degrade <- Some c else s.s_cls <- Some c);
  c

(* Hot path (the tree engine routes table applies through here): [Hashtbl.find]
   rather than [find_opt] — the latter allocates an option per call, and
   this function must allocate nothing on a hit. *)
let lookup t ~table ~degrade_ternary_to_exact:degrade keys =
  match Hashtbl.find t.tbl table with
  | exception Not_found -> None
  | s ->
      if s.s_count = 0 then None
      else begin
        let c =
          match if degrade then s.s_cls_degrade else s.s_cls with
          | Some c -> c
          | None -> build_classifier s ~degrade
        in
        let id = Classifier.find_values c keys in
        if id < 0 then None else s.s_arr.(id)
      end

(* ---------------- engine-facing slot handles ---------------- *)

let tslot = slot

let tslot_entry (s : tslot) id =
  match if id >= 0 && id < s.s_next then s.s_arr.(id) else None with
  | Some e -> e
  | None -> invalid_arg "Runtime.tslot_entry: stale entry id"

let tslot_classifier (s : tslot) program ~degrade =
  match if degrade then s.s_cls_degrade else s.s_cls with
  | Some c -> c
  | None -> (
      match Ast.find_table program s.s_name with
      | None -> invalid_arg ("Runtime.tslot_classifier: undeclared table " ^ s.s_name)
      | Some tbl -> (
          match key_widths program s tbl with
          | Error m -> invalid_arg ("Runtime.tslot_classifier: " ^ m)
          | Ok () -> build_classifier s ~degrade))
