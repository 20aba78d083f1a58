(* Per-table slots hold entries in a growable array indexed by local entry
   id. Ids are allocated monotonically in install order and never reused —
   not even across [clear] — so install-order tie-breaks reduce to id
   order and engine-side caches keyed on id (the staged engine's bound
   cache) can never alias a stale entry. A structural (priority, keys)
   index gives O(1) removal of the earliest-installed matching entry, and
   each slot lazily hosts the two {!Classifier} variants (per
   degrade_ternary_to_exact setting) that both engines share. *)

type slot = {
  mutable s_arr : Entry.t option array;  (* by local id; None = removed *)
  mutable s_next : int;  (* next id to allocate; never reset *)
  mutable s_count : int;  (* live entries *)
  s_index : (int * Entry.mkey list, int list) Hashtbl.t;  (* live ids, ascending *)
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

let new_slot () =
  {
    s_arr = [||];
    s_next = 0;
    s_count = 0;
    s_index = Hashtbl.create 16;
    s_cls = None;
    s_cls_degrade = None;
  }

let slot t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None ->
      let s = new_slot () in
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

let validate program ~table (e : Entry.t) existing_count =
  match Ast.find_table program table with
  | None -> Error (Printf.sprintf "table %s: not declared" table)
  | Some tbl ->
      let open Ast in
      if existing_count >= tbl.t_size then
        Error (Printf.sprintf "table %s: capacity %d exceeded" table tbl.t_size)
      else if List.length e.Entry.keys <> List.length tbl.t_keys then
        Error (Printf.sprintf "table %s: expected %d keys, got %d" table
                 (List.length tbl.t_keys) (List.length e.Entry.keys))
      else if not (List.mem e.Entry.action tbl.t_actions) then
        Error (Printf.sprintf "table %s: action %s not permitted" table e.Entry.action)
      else begin
        let kind_ok (k : Entry.mkey) (kind : match_kind) =
          match (k, kind) with
          | Entry.Exact_v _, Exact | Entry.Lpm_v _, Lpm | Entry.Ternary_v _, Ternary -> true
          | Entry.Exact_v _, (Lpm | Ternary)
          | Entry.Lpm_v _, (Exact | Ternary)
          | Entry.Ternary_v _, (Exact | Lpm) ->
              false
        in
        let kinds_ok = List.for_all2 (fun k (_, kind) -> kind_ok k kind) e.Entry.keys tbl.t_keys in
        if not kinds_ok then Error (Printf.sprintf "table %s: match-kind mismatch" table)
        else
          match Ast.find_action program e.Entry.action with
          | None -> Error (Printf.sprintf "action %s: not declared" e.Entry.action)
          | Some act ->
              if List.length e.Entry.args <> List.length act.a_params then
                Error
                  (Printf.sprintf "action %s: expected %d args, got %d" e.Entry.action
                     (List.length act.a_params) (List.length e.Entry.args))
              else begin
                let args_ok =
                  List.for_all2
                    (fun arg (p : field_decl) -> Value.width arg = p.f_width)
                    e.Entry.args act.a_params
                in
                let lpm_ok =
                  List.for_all
                    (fun k ->
                      match k with
                      | Entry.Lpm_v (v, len) -> len >= 0 && len <= Value.width v
                      | Entry.Exact_v _ | Entry.Ternary_v _ -> true)
                    e.Entry.keys
                in
                if not args_ok then
                  Error (Printf.sprintf "action %s: argument width mismatch" e.Entry.action)
                else if not lpm_ok then Error "lpm prefix length out of range"
                else Ok ()
              end
      end

let key_sig (e : Entry.t) = (e.Entry.priority, e.Entry.keys)

let cls_iter s f =
  (match s.s_cls with Some c -> f c | None -> ());
  match s.s_cls_degrade with Some c -> f c | None -> ()

let add program t ~table e =
  let s = slot t table in
  match validate program ~table e s.s_count with
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

let copy t =
  let t' = create () in
  Hashtbl.iter
    (fun name s ->
      let s' = new_slot () in
      List.iter
        (fun e ->
          let id = s'.s_next in
          if id >= Array.length s'.s_arr then begin
            let narr = Array.make (max 16 (2 * (id + 1))) None in
            Array.blit s'.s_arr 0 narr 0 (Array.length s'.s_arr);
            s'.s_arr <- narr
          end;
          s'.s_arr.(id) <- Some e;
          s'.s_next <- id + 1;
          s'.s_count <- s'.s_count + 1;
          let ks = key_sig e in
          let ids = match Hashtbl.find_opt s'.s_index ks with Some l -> l | None -> [] in
          Hashtbl.replace s'.s_index ks (ids @ [ id ]))
        (slot_entries s);
      Hashtbl.add t'.tbl name s')
    t.tbl;
  t'

let tables t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort String.compare

(* ---------------- classifier hosting ---------------- *)

let build_classifier s ~kws ~degrade =
  let c =
    Classifier.create ~kws ~degrade ~resolve:(fun id ->
        match s.s_arr.(id) with Some e -> e | None -> invalid_arg "Runtime: stale entry id")
  in
  for id = 0 to s.s_next - 1 do
    match s.s_arr.(id) with Some e -> Classifier.insert c id e | None -> ()
  done;
  (if degrade then s.s_cls_degrade <- Some c else s.s_cls <- Some c);
  c

let slot_classifier s ~kws ~degrade =
  match if degrade then s.s_cls_degrade else s.s_cls with
  | Some c -> c
  | None -> build_classifier s ~kws ~degrade

let classifier_rebuilds t =
  Hashtbl.fold
    (fun _ s acc ->
      let r = match s.s_cls with Some c -> Classifier.rebuilds c | None -> 0 in
      let rd = match s.s_cls_degrade with Some c -> Classifier.rebuilds c | None -> 0 in
      acc + r + rd)
    t.tbl 0

let rec key_widths acc = function
  | [] -> List.rev acc
  | v :: rest -> key_widths (Value.width v :: acc) rest

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
          | None ->
              build_classifier s ~kws:(Array.of_list (key_widths [] keys)) ~degrade
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

let tslot_classifier (s : tslot) ~kws ~degrade = slot_classifier s ~kws ~degrade
