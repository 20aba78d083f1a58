(* Staged execution engine: a one-time pass lowering [Ast.program] into flat
   arrays of OCaml closures over an integer-slotted mutable execution
   context. Every header field, metadatum and standard-metadata slot is
   interned to an [int64 array] index with its bit offset and width
   precomputed, the parser FSM becomes a dispatch table over state indices,
   match-action tables look up the runtime's incremental [Classifier]
   (equivalent to [Entry.select]), actions become closure chains over a
   positional argument vector, and the deparser emits into a reused
   [Bitstring.Builder].

   The contract is strict observational equivalence with the tree-walking
   interpreter ([Parse]/[Exec]/[Deparse]) under the same hooks, including
   exception messages and the order of counter/table/assert callbacks. The
   one documented deviation: action-parameter references are resolved with
   static (per-action) scoping, where the tree engine's environment stack
   would also find parameters of a dynamically enclosing action — a
   situation [Typecheck] rejects, so the engines agree on every well-typed
   program. *)

module Bitstring = Bitutil.Bitstring
module Builder = Bitstring.Builder

type engine = [ `Tree | `Staged ]

let mask_of width =
  if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L

(* Replicates [Value.to_int], message included. *)
let to_int_checked v =
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg "Value.to_int: overflow";
  Int64.to_int v

(* Standard-metadata slots. *)
let std_slot = function
  | Ast.Ingress_port -> 0
  | Ast.Egress_spec -> 1
  | Ast.Packet_length -> 2
  | Ast.Parser_error -> 3

let n_std = 4

(* ------------------------------------------------------------------ *)
(* Layout: slot interning                                              *)
(* ------------------------------------------------------------------ *)

type layout = {
  header_ids : (string, int) Hashtbl.t;
  hdr_width : int array;  (* total bits per header *)
  hdr_slots : int array array;  (* per header: global slot per field, decl order *)
  hdr_offs : int array array;  (* per header: bit offset of each field *)
  hdr_fws : int array array;  (* per header: field widths *)
  field_ids : (string, int) Hashtbl.t;  (* "hdr.fld" -> global slot *)
  slot_width : int array;
  slot_mask : int64 array;
  nslots : int;
  meta_ids : (string, int) Hashtbl.t;
  meta_mask : int64 array;
  meta_width : int array;
}

let build_layout (p : Ast.program) =
  let header_ids = Hashtbl.create 8 and field_ids = Hashtbl.create 16 in
  let nh = List.length p.Ast.p_headers in
  let hdr_width = Array.make nh 0 in
  let hdr_slots = Array.make nh [||] in
  let hdr_offs = Array.make nh [||] in
  let hdr_fws = Array.make nh [||] in
  let widths_rev = ref [] and nslots = ref 0 in
  List.iteri
    (fun hid (hd : Ast.header_decl) ->
      (* duplicate names: first declaration wins, like [Ast.find_header] *)
      if not (Hashtbl.mem header_ids hd.h_name) then Hashtbl.add header_ids hd.h_name hid;
      let nf = List.length hd.h_fields in
      let slots = Array.make nf 0 and offs = Array.make nf 0 and fws = Array.make nf 0 in
      let off = ref 0 in
      List.iteri
        (fun i (f : Ast.field_decl) ->
          let slot = !nslots in
          incr nslots;
          widths_rev := f.f_width :: !widths_rev;
          slots.(i) <- slot;
          offs.(i) <- !off;
          fws.(i) <- f.f_width;
          off := !off + f.f_width;
          let key = hd.h_name ^ "." ^ f.f_name in
          if Hashtbl.find_opt header_ids hd.h_name = Some hid && not (Hashtbl.mem field_ids key)
          then Hashtbl.add field_ids key slot)
        hd.h_fields;
      hdr_width.(hid) <- !off;
      hdr_slots.(hid) <- slots;
      hdr_offs.(hid) <- offs;
      hdr_fws.(hid) <- fws)
    p.Ast.p_headers;
  let slot_width = Array.of_list (List.rev !widths_rev) in
  let meta_ids = Hashtbl.create 8 in
  let nm = List.length p.Ast.p_metadata in
  let meta_width = Array.make nm 0 in
  List.iteri
    (fun i (f : Ast.field_decl) ->
      if not (Hashtbl.mem meta_ids f.f_name) then Hashtbl.add meta_ids f.f_name i;
      meta_width.(i) <- f.f_width)
    p.Ast.p_metadata;
  {
    header_ids;
    hdr_width;
    hdr_slots;
    hdr_offs;
    hdr_fws;
    field_ids;
    slot_width;
    slot_mask = Array.map mask_of slot_width;
    nslots = !nslots;
    meta_ids;
    meta_mask = Array.map mask_of meta_width;
    meta_width;
  }

let header_id lay h = Hashtbl.find_opt lay.header_ids h

let field_slot lay h f = Hashtbl.find_opt lay.field_ids (h ^ "." ^ f)

(* ------------------------------------------------------------------ *)
(* Compiled program and execution context                              *)
(* ------------------------------------------------------------------ *)

type bound = { b_name : string; b_exec : inst -> unit }

and tstate = {
  mutable ts_slot : Runtime.tslot option;  (* pinned on first apply *)
  mutable ts_cls : Classifier.t option;  (* shared incremental classifier *)
  mutable ts_bounds : bound array;  (* action closures, dense by entry id *)
}

and cstate = {
  cs_id : int;  (* state-name id, for visited tracking *)
  cs_extracts : cextract array;
  cs_trans : inst -> int;  (* >=0 next state; -1 accept; -2 reject; <=-3 bad *)
}

and cextract = {
  ex_hid : int;  (* -1: undeclared, raise with [ex_name] *)
  ex_name : string;
  ex_width : int;
  ex_slots : int array;
  ex_offs : int array;
  ex_fws : int array;
}

and cemit = { em_hid : int; em_name : string; em_slots : int array; em_fws : int array }

and t = {
  cp_prog : Ast.program;
  lay : layout;
  counter_names : string array;
  assert_msgs : string array;
  table_names : string array;
  state_names : string array;
  reg_decls : Ast.register_decl array;
  n_tables : int;
  scratch_keys : int;
  max_visits : int;
  cp_ingress : (inst -> unit) array;
  cp_egress : (inst -> unit) array;
  pstates : cstate array;
  bad_pstates : string array;  (* undeclared transition targets *)
  on_reject_continue : bool;
  ck_verify : (inst -> bool) option;  (* present iff verification applies *)
  ck_update : (inst -> unit) option;
  emits : cemit array;
  base_always_miss : string -> bool;
}

and inst = {
  cp : t;
  fields : int64 array;
  meta : int64 array;
  std : int64 array;
  valid : bool array;
  mutable cur_args : int64 array;
  mutable in_egress : bool;
  mutable pkt : Bitstring.t;
  mutable pos : int;
  mutable payload_off : int;
  mutable p_accepted : bool;
  mutable p_error : int;
  mutable track_states : bool;
  visited : int array;
  mutable nvisited : int;
  kscratch : int64 array;
  tstates : tstate array;
  i_runtime : Runtime.t;
  mutable regs : (int * Value.t array) array;
  ck_scratch : Builder.t;
  out_buf : Builder.t;
  mutable always_miss : string -> bool;
  mutable on_count : int -> unit;
  mutable on_assert : bool -> int -> unit;
  mutable on_table : int -> bool -> string -> unit;
}

let empty_args : int64 array = [||]

(* Placeholder in the per-id bound cache: ids the classifier has not yet
   returned. Compared physically, never executed. *)
let null_bound = { b_name = ""; b_exec = (fun _ -> invalid_arg "Compilecore: null bound") }

let run_ops (ops : (inst -> unit) array) st =
  for i = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops i) st
  done

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* A compiled expression: static width (mirroring [Value]'s width algebra,
   where arithmetic takes the LEFT operand's width) plus an evaluator.
   Constructs the tree engine rejects at evaluation time compile to
   closures raising the identical message at the identical point. *)
type cexpr = { cw : int; ce : inst -> int64 }

let raising_expr msg = { cw = 1; ce = (fun _ -> invalid_arg msg) }

type compile_ctx = {
  cc_lay : layout;
  cc_hooks : Exec.hooks;
  cc_counter_ids : (string, int) Hashtbl.t;
  mutable cc_counters_rev : string list;
  mutable cc_ncounters : int;
  cc_assert_ids : (string, int) Hashtbl.t;
  mutable cc_asserts_rev : string list;
  mutable cc_nasserts : int;
}

let intern_counter cc name =
  match Hashtbl.find_opt cc.cc_counter_ids name with
  | Some i -> i
  | None ->
      let i = cc.cc_ncounters in
      Hashtbl.add cc.cc_counter_ids name i;
      cc.cc_counters_rev <- name :: cc.cc_counters_rev;
      cc.cc_ncounters <- i + 1;
      i

let intern_assert cc msg =
  match Hashtbl.find_opt cc.cc_assert_ids msg with
  | Some i -> i
  | None ->
      let i = cc.cc_nasserts in
      Hashtbl.add cc.cc_assert_ids msg i;
      cc.cc_asserts_rev <- msg :: cc.cc_asserts_rev;
      cc.cc_nasserts <- i + 1;
      i

(* [params]: positional (name, (index, width)) scope of the enclosing
   action body, [] elsewhere. *)
let rec compile_expr cc params (e : Ast.expr) : cexpr =
  let lay = cc.cc_lay in
  match e with
  | Ast.Const v ->
      let x = Value.to_int64 v in
      { cw = Value.width v; ce = (fun _ -> x) }
  | Ast.Field (h, f) -> (
      match header_id lay h with
      | None -> raising_expr (Printf.sprintf "Env: undeclared header %s" h)
      | Some _ -> (
          match field_slot lay h f with
          | None -> raising_expr (Printf.sprintf "Env: undeclared field %s.%s" h f)
          | Some slot ->
              (* invariant: an invalid header's slots hold zero, so a plain
                 load implements [Env.get_field]'s invalid-reads-zero rule *)
              { cw = lay.slot_width.(slot); ce = (fun st -> Array.unsafe_get st.fields slot) }))
  | Ast.Meta m -> (
      match Hashtbl.find_opt lay.meta_ids m with
      | None -> raising_expr (Printf.sprintf "Env: undeclared metadata %s" m)
      | Some i -> { cw = lay.meta_width.(i); ce = (fun st -> Array.unsafe_get st.meta i) })
  | Ast.Std sf ->
      let i = std_slot sf in
      { cw = Ast.std_width sf; ce = (fun st -> Array.unsafe_get st.std i) }
  | Ast.Param p -> (
      match List.assoc_opt p params with
      | Some (i, w) -> { cw = w; ce = (fun st -> Array.unsafe_get st.cur_args i) }
      | None -> raising_expr (Printf.sprintf "Env: unbound action parameter %s" p))
  | Ast.Valid h -> (
      match header_id lay h with
      | None -> raising_expr (Printf.sprintf "Env: undeclared header %s" h)
      | Some hid ->
          { cw = 1; ce = (fun st -> if Array.unsafe_get st.valid hid then 1L else 0L) })
  | Ast.Un (Ast.BNot, e1) ->
      let c1 = compile_expr cc params e1 in
      let m = mask_of c1.cw in
      { cw = c1.cw; ce = (fun st -> Int64.logand (Int64.lognot (c1.ce st)) m) }
  | Ast.Un (Ast.LNot, e1) ->
      let c1 = compile_expr cc params e1 in
      { cw = 1; ce = (fun st -> if c1.ce st = 0L then 1L else 0L) }
  | Ast.Slice (e1, msb, lsb) ->
      let c1 = compile_expr cc params e1 in
      if lsb < 0 || msb < lsb || msb >= c1.cw then
        (* [Value.slice] rejects after the operand evaluates *)
        { cw = 1;
          ce =
            (fun st ->
              ignore (c1.ce st);
              invalid_arg "Value.slice");
        }
      else begin
        let w = msb - lsb + 1 in
        let m = mask_of w in
        { cw = w; ce = (fun st -> Int64.logand (Int64.shift_right_logical (c1.ce st) lsb) m) }
      end
  | Ast.Concat (e1, e2) ->
      let c1 = compile_expr cc params e1 and c2 = compile_expr cc params e2 in
      if c1.cw + c2.cw > 64 then
        { cw = 1;
          ce =
            (fun st ->
              ignore (c1.ce st);
              ignore (c2.ce st);
              invalid_arg "Value.concat: width");
        }
      else
        let sh = c2.cw in
        { cw = c1.cw + c2.cw;
          ce = (fun st -> Int64.logor (Int64.shift_left (c1.ce st) sh) (c2.ce st));
        }
  | Ast.Bin (Ast.LAnd, e1, e2) ->
      let c1 = compile_expr cc params e1 and c2 = compile_expr cc params e2 in
      { cw = 1; ce = (fun st -> if c1.ce st <> 0L then (if c2.ce st <> 0L then 1L else 0L) else 0L) }
  | Ast.Bin (Ast.LOr, e1, e2) ->
      let c1 = compile_expr cc params e1 and c2 = compile_expr cc params e2 in
      { cw = 1; ce = (fun st -> if c1.ce st <> 0L then 1L else if c2.ce st <> 0L then 1L else 0L) }
  | Ast.Bin (((Ast.Shl | Ast.Shr) as op), e1, e2) ->
      let c1 = compile_expr cc params e1 and c2 = compile_expr cc params e2 in
      let shift_amount = cc.cc_hooks.Exec.shift_amount in
      let m = mask_of c1.cw in
      let left = op = Ast.Shl in
      { cw = c1.cw;
        ce =
          (fun st ->
            (* amount first, as the tree engine does *)
            let n = shift_amount (to_int_checked (c2.ce st)) in
            let v = c1.ce st in
            if n >= 64 then 0L
            else if left then Int64.logand (Int64.shift_left v n) m
            else (* operands are normalized, logical shift is unsigned *)
              Int64.logand (Int64.shift_right_logical v n) m);
      }
  | Ast.Bin (op, e1, e2) -> (
      let c1 = compile_expr cc params e1 and c2 = compile_expr cc params e2 in
      let m = mask_of c1.cw in
      let w = c1.cw in
      match op with
      | Ast.Add -> { cw = w; ce = (fun st -> let a = c1.ce st in Int64.logand (Int64.add a (c2.ce st)) m) }
      | Ast.Sub -> { cw = w; ce = (fun st -> let a = c1.ce st in Int64.logand (Int64.sub a (c2.ce st)) m) }
      | Ast.Mul -> { cw = w; ce = (fun st -> let a = c1.ce st in Int64.logand (Int64.mul a (c2.ce st)) m) }
      | Ast.BAnd -> { cw = w; ce = (fun st -> let a = c1.ce st in Int64.logand a (c2.ce st)) }
      | Ast.BOr -> { cw = w; ce = (fun st -> let a = c1.ce st in Int64.logand (Int64.logor a (c2.ce st)) m) }
      | Ast.BXor -> { cw = w; ce = (fun st -> let a = c1.ce st in Int64.logand (Int64.logxor a (c2.ce st)) m) }
      | Ast.Eq -> { cw = 1; ce = (fun st -> let a = c1.ce st in if a = c2.ce st then 1L else 0L) }
      | Ast.Neq -> { cw = 1; ce = (fun st -> let a = c1.ce st in if a <> c2.ce st then 1L else 0L) }
      | Ast.Lt ->
          { cw = 1; ce = (fun st -> let a = c1.ce st in if Int64.unsigned_compare a (c2.ce st) < 0 then 1L else 0L) }
      | Ast.Le ->
          { cw = 1; ce = (fun st -> let a = c1.ce st in if Int64.unsigned_compare a (c2.ce st) <= 0 then 1L else 0L) }
      | Ast.Gt ->
          { cw = 1; ce = (fun st -> let a = c1.ce st in if Int64.unsigned_compare a (c2.ce st) > 0 then 1L else 0L) }
      | Ast.Ge ->
          { cw = 1; ce = (fun st -> let a = c1.ce st in if Int64.unsigned_compare a (c2.ce st) >= 0 then 1L else 0L) }
      | Ast.Shl | Ast.Shr | Ast.LAnd | Ast.LOr -> assert false)

(* An lvalue setter; the value argument carries the RHS already evaluated,
   so raising setters still evaluate the RHS first, like the tree engine. *)
let compile_lvalue cc (lv : Ast.lvalue) : inst -> int64 -> unit =
  let lay = cc.cc_lay in
  match lv with
  | Ast.LField (h, f) -> (
      match header_id lay h with
      | None ->
          let msg = Printf.sprintf "Env: undeclared header %s" h in
          fun _ _ -> invalid_arg msg
      | Some hid -> (
          match field_slot lay h f with
          | None ->
              let msg = Printf.sprintf "Env: undeclared field %s.%s" h f in
              fun _ _ -> invalid_arg msg
          | Some slot ->
              let m = lay.slot_mask.(slot) in
              fun st v ->
                (* [Env.set_field] is a no-op while the header is invalid *)
                if Array.unsafe_get st.valid hid then
                  Array.unsafe_set st.fields slot (Int64.logand v m)))
  | Ast.LMeta mname -> (
      match Hashtbl.find_opt lay.meta_ids mname with
      | None ->
          let msg = Printf.sprintf "Env: undeclared metadata %s" mname in
          fun _ _ -> invalid_arg msg
      | Some i ->
          let m = lay.meta_mask.(i) in
          fun st v -> Array.unsafe_set st.meta i (Int64.logand v m))
  | Ast.LStd sf ->
      let i = std_slot sf in
      let m = mask_of (Ast.std_width sf) in
      fun st v -> Array.unsafe_set st.std i (Int64.logand v m)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* [ca_ops] is mutable because action signatures are interned in one pass
   (so any [Apply] can type its bounds) and the bodies filled in a second:
   a bound built between the passes reads the final body through the
   record. *)
type caction = { ca_pw : int array; mutable ca_ops : (inst -> unit) array }

let make_bound (action_ids : (string, int) Hashtbl.t) (cactions : caction array) name
    (raw_args : Value.t list) =
  match Hashtbl.find_opt action_ids name with
  | None ->
      let msg = Printf.sprintf "Exec: undeclared action %s" name in
      { b_name = name; b_exec = (fun _ -> invalid_arg msg) }
  | Some aid ->
      let ca = cactions.(aid) in
      if List.length raw_args <> Array.length ca.ca_pw then begin
        let msg = Printf.sprintf "Exec: action %s arity mismatch" name in
        { b_name = name; b_exec = (fun _ -> invalid_arg msg) }
      end
      else if Array.exists (fun w -> w < 1 || w > 64) ca.ca_pw then
        (* the tree engine's per-run [Value.make] on the arguments *)
        { b_name = name; b_exec = (fun _ -> invalid_arg "Value.make: width") }
      else begin
        (* re-mask the arguments to the declared parameter widths once,
           here, rather than per run as [Exec.run_action] does *)
        let args = Array.of_list (List.map Value.to_int64 raw_args) in
        Array.iteri (fun i v -> args.(i) <- Int64.logand v (mask_of ca.ca_pw.(i))) args;
        {
          b_name = name;
          b_exec =
            (fun st ->
              let saved = st.cur_args in
              st.cur_args <- args;
              (try run_ops ca.ca_ops st
               with e ->
                 st.cur_args <- saved;
                 raise e);
              st.cur_args <- saved);
        }
      end

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let rec compile_stmts cc (prog : Ast.program) action_ids cactions degrade tbl_ids params stmts =
  Array.of_list (List.map (compile_stmt cc prog action_ids cactions degrade tbl_ids params) stmts)

and compile_stmt cc prog action_ids cactions degrade tbl_ids params (s : Ast.stmt) : inst -> unit =
  let lay = cc.cc_lay in
  match s with
  | Ast.Nop -> fun _ -> ()
  | Ast.Assign (lv, e) ->
      let ce = compile_expr cc params e in
      let set = compile_lvalue cc lv in
      fun st -> set st (ce.ce st)
  | Ast.If (cond, then_, else_) ->
      let cc_cond = compile_expr cc params cond in
      let ct = compile_stmts cc prog action_ids cactions degrade tbl_ids params then_ in
      let ce = compile_stmts cc prog action_ids cactions degrade tbl_ids params else_ in
      fun st -> if cc_cond.ce st <> 0L then run_ops ct st else run_ops ce st
  | Ast.SetValid h -> (
      match header_id lay h with
      | None ->
          let msg = Printf.sprintf "Env: undeclared header %s" h in
          fun _ -> invalid_arg msg
      | Some hid -> fun st -> st.valid.(hid) <- true)
  | Ast.SetInvalid h -> (
      match header_id lay h with
      | None ->
          let msg = Printf.sprintf "Env: undeclared header %s" h in
          fun _ -> invalid_arg msg
      | Some hid ->
          let slots = lay.hdr_slots.(hid) in
          fun st ->
            st.valid.(hid) <- false;
            (* restore the invalid-header slots-are-zero invariant *)
            for i = 0 to Array.length slots - 1 do
              st.fields.(slots.(i)) <- 0L
            done)
  | Ast.MarkToDrop ->
      let de_ing = cc.cc_hooks.Exec.drop_effective Exec.Ingress in
      let de_eg = cc.cc_hooks.Exec.drop_effective Exec.Egress in
      let drop = Int64.of_int Stdmeta.drop_port in
      fun st ->
        if if st.in_egress then de_eg else de_ing then st.std.(std_slot Ast.Egress_spec) <- drop
  | Ast.Count c ->
      let id = intern_counter cc c in
      fun st -> st.on_count id
  | Ast.Assert (cond, msg) ->
      let cc_cond = compile_expr cc params cond in
      let id = intern_assert cc msg in
      fun st -> st.on_assert (cc_cond.ce st <> 0L) id
  | Ast.RegRead (lv, reg, idx) -> (
      let cidx = compile_expr cc params idx in
      match reg_id prog reg with
      | None ->
          let msg = Printf.sprintf "Regstate: undeclared register %s" reg in
          fun st ->
            ignore (to_int_checked (cidx.ce st));
            invalid_arg msg
      | Some rid ->
          let set = compile_lvalue cc lv in
          fun st ->
            let i = to_int_checked (cidx.ce st) in
            let _, cells = Array.unsafe_get st.regs rid in
            let v = if i < 0 || i >= Array.length cells then 0L else Value.to_int64 cells.(i) in
            set st v)
  | Ast.RegWrite (reg, idx, value) -> (
      let cidx = compile_expr cc params idx in
      let cval = compile_expr cc params value in
      match reg_id prog reg with
      | None ->
          let msg = Printf.sprintf "Regstate: undeclared register %s" reg in
          fun st ->
            ignore (to_int_checked (cidx.ce st));
            ignore (cval.ce st);
            invalid_arg msg
      | Some rid ->
          fun st ->
            let i = to_int_checked (cidx.ce st) in
            let v = cval.ce st in
            let w, cells = Array.unsafe_get st.regs rid in
            if i >= 0 && i < Array.length cells then cells.(i) <- Value.make ~width:w v)
  | Ast.Apply tname -> (
      match Hashtbl.find_opt tbl_ids tname with
      | None ->
          let msg = Printf.sprintf "Exec: undeclared table %s" tname in
          fun _ -> invalid_arg msg
      | Some tid ->
          let tbl = List.nth prog.Ast.p_tables tid in
          (* key expressions compile per apply site so an action-body apply
             sees that action's parameter scope, as the tree engine does *)
          let keys =
            Array.of_list (List.map (fun (e, _) -> compile_expr cc params e) tbl.Ast.t_keys)
          in
          let kws = Array.map (fun c -> c.cw) keys in
          let nk = Array.length keys in
          let default_b =
            make_bound action_ids cactions tbl.Ast.t_default_action tbl.Ast.t_default_args
          in
          let dname = tbl.Ast.t_default_action in
          (* grow-on-demand per-id cache of compiled action closures; ids
             are never reused, so entries here can never go stale *)
          let bound_for ts slot id =
            let bs =
              if id < Array.length ts.ts_bounds then ts.ts_bounds
              else begin
                let nbs = Array.make (max 16 (2 * (id + 1))) null_bound in
                Array.blit ts.ts_bounds 0 nbs 0 (Array.length ts.ts_bounds);
                ts.ts_bounds <- nbs;
                nbs
              end
            in
            let b = Array.unsafe_get bs id in
            if b != null_bound then b
            else begin
              let e = Runtime.tslot_entry slot id in
              let b = make_bound action_ids cactions e.Entry.action e.Entry.args in
              bs.(id) <- b;
              b
            end
          in
          fun st ->
            for i = 0 to nk - 1 do
              st.kscratch.(i) <- (Array.unsafe_get keys i).ce st
            done;
            let ts = Array.unsafe_get st.tstates tid in
            let slot =
              match ts.ts_slot with
              | Some s -> s
              | None ->
                  let s = Runtime.tslot st.i_runtime tname in
                  ts.ts_slot <- Some s;
                  s
            in
            (* the classifier is patched in place by the control plane, so
               there is nothing to invalidate *)
            let cls =
              match ts.ts_cls with
              | Some c -> c
              | None ->
                  let c = Runtime.tslot_classifier slot ~kws ~degrade in
                  ts.ts_cls <- Some c;
                  c
            in
            let id = if st.always_miss tname then -1 else Classifier.find_raw cls st.kscratch in
            if id >= 0 then begin
              let b = bound_for ts slot id in
              st.on_table tid true b.b_name;
              b.b_exec st
            end
            else begin
              st.on_table tid false dname;
              default_b.b_exec st
            end)

and reg_id (prog : Ast.program) name =
  let rec go i = function
    | [] -> None
    | (r : Ast.register_decl) :: rest -> if String.equal r.r_name name then Some i else go (i + 1) rest
  in
  go 0 prog.Ast.p_registers

(* ------------------------------------------------------------------ *)
(* Program compilation                                                 *)
(* ------------------------------------------------------------------ *)

let compile ?(exec_hooks = Exec.spec_hooks) ?(parse_hooks = Parse.spec_hooks)
    ?update_ipv4_checksum (prog : Ast.program) =
  let lay = build_layout prog in
  let cc =
    {
      cc_lay = lay;
      cc_hooks = exec_hooks;
      cc_counter_ids = Hashtbl.create 8;
      cc_counters_rev = [];
      cc_ncounters = 0;
      cc_assert_ids = Hashtbl.create 8;
      cc_asserts_rev = [];
      cc_nasserts = 0;
    }
  in
  List.iter (fun c -> ignore (intern_counter cc c)) prog.Ast.p_counters;
  let degrade = exec_hooks.Exec.degrade_ternary_to_exact in
  (* tables: ids by declaration order, names resolved like [find_table]
     (first declaration wins) *)
  let tbl_ids = Hashtbl.create 8 in
  List.iteri
    (fun i (t : Ast.table) -> if not (Hashtbl.mem tbl_ids t.t_name) then Hashtbl.add tbl_ids t.t_name i)
    prog.Ast.p_tables;
  let action_ids = Hashtbl.create 8 in
  List.iteri
    (fun i (a : Ast.action) -> if not (Hashtbl.mem action_ids a.a_name) then Hashtbl.add action_ids a.a_name i)
    prog.Ast.p_actions;
  (* pass 1: signatures, so a body compiled in pass 2 can bind any action
     (including ones declared after it) through the mutable [ca_ops] *)
  let cactions =
    Array.of_list
      (List.map
         (fun (a : Ast.action) ->
           { ca_pw = Array.of_list (List.map (fun (p : Ast.field_decl) -> p.f_width) a.a_params);
             ca_ops = [||];
           })
         prog.Ast.p_actions)
  in
  List.iteri
    (fun i (a : Ast.action) ->
      (* first binding wins on duplicate parameter names, like the
         [List.assoc] lookup over the tree engine's pushed bindings *)
      let params =
        List.mapi (fun j (p : Ast.field_decl) -> (p.f_name, (j, p.f_width))) a.a_params
      in
      cactions.(i).ca_ops <-
        compile_stmts cc prog action_ids cactions degrade tbl_ids params a.a_body)
    prog.Ast.p_actions;
  let cp_ingress = compile_stmts cc prog action_ids cactions degrade tbl_ids [] prog.Ast.p_ingress in
  let cp_egress = compile_stmts cc prog action_ids cactions degrade tbl_ids [] prog.Ast.p_egress in
  (* parser *)
  let state_ids = Hashtbl.create 8 in
  List.iteri
    (fun i (s : Ast.parser_state) ->
      if not (Hashtbl.mem state_ids s.ps_name) then Hashtbl.add state_ids s.ps_name i)
    prog.Ast.p_parser;
  let bad_pstates_rev = ref [] and n_bad = ref 0 in
  let target_code (t : Ast.ptarget) =
    match t with
    | Ast.To_accept -> -1
    | Ast.To_reject -> -2
    | Ast.To_state s -> (
        match Hashtbl.find_opt state_ids s with
        | Some i -> i
        | None ->
            let k = !n_bad in
            incr n_bad;
            bad_pstates_rev := s :: !bad_pstates_rev;
            -3 - k)
  in
  let compile_extract hname =
    match header_id lay hname with
    | None ->
        { ex_hid = -1; ex_name = hname; ex_width = 0; ex_slots = [||]; ex_offs = [||]; ex_fws = [||] }
    | Some hid ->
        {
          ex_hid = hid;
          ex_name = hname;
          ex_width = lay.hdr_width.(hid);
          ex_slots = lay.hdr_slots.(hid);
          ex_offs = lay.hdr_offs.(hid);
          ex_fws = lay.hdr_fws.(hid);
        }
  in
  let max_select_keys = ref 0 in
  let compile_transition (tr : Ast.transition) : inst -> int =
    match tr with
    | Ast.Direct t ->
        let code = target_code t in
        fun _ -> code
    | Ast.Select (keys, cases, default) ->
        let ckeys = Array.of_list (List.map (compile_expr cc []) keys) in
        let nk = Array.length ckeys in
        if nk > !max_select_keys then max_select_keys := nk;
        (* cases whose keyset arity differs can never match *)
        let cases = List.filter (fun (c : Ast.select_case) -> List.length c.sc_keysets = nk) cases in
        let ncases = List.length cases in
        let masks = Array.make (ncases * nk) 0L and vals = Array.make (ncases * nk) 0L in
        let targets = Array.make (max 1 ncases) 0 in
        List.iteri
          (fun ci (c : Ast.select_case) ->
            targets.(ci) <- target_code c.sc_target;
            List.iteri
              (fun k (v, m) ->
                match m with
                | None ->
                    masks.((ci * nk) + k) <- -1L;
                    vals.((ci * nk) + k) <- Value.to_int64 v
                | Some m ->
                    let mr = Value.to_int64 m in
                    masks.((ci * nk) + k) <- mr;
                    vals.((ci * nk) + k) <- Int64.logand (Value.to_int64 v) mr)
              c.sc_keysets)
          cases;
        let default_code = target_code default in
        fun st ->
          for i = 0 to nk - 1 do
            st.kscratch.(i) <- (Array.unsafe_get ckeys i).ce st
          done;
          let row = ref 0 and res = ref default_code and stop = ref false in
          while (not !stop) && !row < ncases do
            let base = !row * nk in
            let k = ref 0 in
            while
              !k < nk
              && Int64.logand st.kscratch.(!k) (Array.unsafe_get masks (base + !k))
                 = Array.unsafe_get vals (base + !k)
            do
              incr k
            done;
            if !k = nk then begin
              res := targets.(!row);
              stop := true
            end
            else incr row
          done;
          !res
  in
  let pstates =
    Array.of_list
      (List.mapi
         (fun i (s : Ast.parser_state) ->
           {
             cs_id = i;
             cs_extracts = Array.of_list (List.map compile_extract s.ps_extracts);
             cs_trans = compile_transition s.ps_transition;
           })
         prog.Ast.p_parser)
  in
  (* ipv4 checksum verification (parse-time) and update (deparse-time) *)
  let verify_wanted = parse_hooks.Parse.verify_checksum && prog.Ast.p_verify_ipv4_checksum in
  let ck_verify =
    if not verify_wanted then None
    else
      match header_id lay "ipv4" with
      | None ->
          (* [ipv4_checksum_ok] calls [Env.is_valid], which raises *)
          Some (fun _ -> invalid_arg "Env: undeclared header ipv4")
      | Some hid ->
          let slots = lay.hdr_slots.(hid) and fws = lay.hdr_fws.(hid) in
          Some
            (fun st ->
              if not st.valid.(hid) then true
              else begin
                let b = st.ck_scratch in
                Builder.reset b;
                for i = 0 to Array.length slots - 1 do
                  Builder.add_int64 b ~width:fws.(i) st.fields.(slots.(i))
                done;
                Bitutil.Checksum.ones_complement_sum_bytes (Builder.buffer b)
                  ~bits:(Builder.length b)
                = 0xffff
              end)
  in
  let update_wanted =
    match update_ipv4_checksum with Some u -> u | None -> prog.Ast.p_update_ipv4_checksum
  in
  let ck_update =
    if not update_wanted then None
    else
      match header_id lay "ipv4" with
      | None -> None  (* [Deparse.run] checks [find_header] first *)
      | Some hid ->
          let slots = lay.hdr_slots.(hid) and fws = lay.hdr_fws.(hid) in
          let ck_slot = match field_slot lay "ipv4" "checksum" with Some s -> s | None -> -1 in
          Some
            (fun st ->
              if st.valid.(hid) then begin
                if ck_slot < 0 then invalid_arg "Env: undeclared field ipv4.checksum";
                let b = st.ck_scratch in
                Builder.reset b;
                for i = 0 to Array.length slots - 1 do
                  let v = if slots.(i) = ck_slot then 0L else st.fields.(slots.(i)) in
                  Builder.add_int64 b ~width:fws.(i) v
                done;
                let ck =
                  Bitutil.Checksum.checksum_bytes (Builder.buffer b) ~bits:(Builder.length b)
                in
                (* [Value.of_int ~width:16] then [set_field]'s re-mask *)
                st.fields.(ck_slot) <-
                  Int64.logand (Int64.logand (Int64.of_int ck) 0xffffL) lay.slot_mask.(ck_slot)
              end)
  in
  let emits =
    Array.of_list
      (List.map
         (fun hname ->
           match header_id lay hname with
           | None -> { em_hid = -1; em_name = hname; em_slots = [||]; em_fws = [||] }
           | Some hid ->
               { em_hid = hid; em_name = hname; em_slots = lay.hdr_slots.(hid); em_fws = lay.hdr_fws.(hid) })
         prog.Ast.p_deparser)
  in
  let max_table_keys =
    List.fold_left (fun acc (t : Ast.table) -> max acc (List.length t.t_keys)) 0 prog.Ast.p_tables
  in
  {
    cp_prog = prog;
    lay;
    counter_names = Array.of_list (List.rev cc.cc_counters_rev);
    assert_msgs = Array.of_list (List.rev cc.cc_asserts_rev);
    table_names = Array.of_list (List.map (fun (t : Ast.table) -> t.t_name) prog.Ast.p_tables);
    state_names =
      Array.of_list (List.map (fun (s : Ast.parser_state) -> s.ps_name) prog.Ast.p_parser);
    reg_decls = Array.of_list prog.Ast.p_registers;
    n_tables = List.length prog.Ast.p_tables;
    scratch_keys = max 1 (max max_table_keys !max_select_keys);
    max_visits = max 1 parse_hooks.Parse.max_steps;
    cp_ingress;
    cp_egress;
    pstates;
    bad_pstates = Array.of_list (List.rev !bad_pstates_rev);
    on_reject_continue = parse_hooks.Parse.on_reject = `Continue;
    ck_verify;
    ck_update;
    emits;
    base_always_miss = exec_hooks.Exec.table_always_miss;
  }

(* ------------------------------------------------------------------ *)
(* Accessors over the compiled form                                    *)
(* ------------------------------------------------------------------ *)

let program cp = cp.cp_prog
let n_counters cp = Array.length cp.counter_names
let counter_name cp i = cp.counter_names.(i)
let n_tables cp = cp.n_tables
let table_name cp i = cp.table_names.(i)
let assert_msg cp i = cp.assert_msgs.(i)
let has_registers cp = Array.length cp.reg_decls > 0

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

let resolve_regs cp (rs : Regstate.t) =
  Array.map (fun (r : Ast.register_decl) -> Regstate.cells rs r.r_name) cp.reg_decls

let instantiate ?(on_count = fun _ -> ()) ?(on_assert = fun _ _ -> ())
    ?(on_table = fun _ _ _ -> ()) ?table_always_miss ?regs ?(track_states = false) cp
    ~runtime:(rt : Runtime.t) =
  let regstore = match regs with Some r -> r | None -> Regstate.create cp.cp_prog in
  {
    cp;
    fields = Array.make (max 1 cp.lay.nslots) 0L;
    meta = Array.make (max 1 (Array.length cp.lay.meta_width)) 0L;
    std = Array.make n_std 0L;
    valid = Array.make (max 1 (Array.length cp.lay.hdr_width)) false;
    cur_args = empty_args;
    in_egress = false;
    pkt = Bitstring.empty;
    pos = 0;
    payload_off = 0;
    p_accepted = true;
    p_error = 0;
    track_states;
    visited = Array.make cp.max_visits 0;
    nvisited = 0;
    kscratch = Array.make cp.scratch_keys 0L;
    tstates =
      Array.init cp.n_tables (fun _ ->
          { ts_slot = None; ts_cls = None; ts_bounds = [||] });
    i_runtime = rt;
    regs = resolve_regs cp regstore;
    ck_scratch = Builder.create ~capacity_bits:256 ();
    out_buf = Builder.create ~capacity_bits:2048 ();
    always_miss = (match table_always_miss with Some f -> f | None -> cp.base_always_miss);
    on_count;
    on_assert;
    on_table;
  }

let set_regs st rs = st.regs <- resolve_regs st.cp rs

let set_track_states st b = st.track_states <- b

let reset st =
  Array.fill st.fields 0 (Array.length st.fields) 0L;
  Array.fill st.meta 0 (Array.length st.meta) 0L;
  Array.fill st.std 0 n_std 0L;
  Array.fill st.valid 0 (Array.length st.valid) false;
  st.cur_args <- empty_args;
  st.in_egress <- false;
  st.pkt <- Bitstring.empty;
  st.pos <- 0;
  st.payload_off <- 0;
  st.p_accepted <- true;
  st.p_error <- 0;
  st.nvisited <- 0

let set_ingress_port st p =
  st.std.(std_slot Ast.Ingress_port) <- Int64.logand (Int64.of_int p) (mask_of 9)

let dropped st = st.std.(std_slot Ast.Egress_spec) = Int64.of_int Stdmeta.drop_port

let egress_port st = to_int_checked st.std.(std_slot Ast.Egress_spec)

let parse_accepted st = st.p_accepted

let parse_error st = st.p_error

let parse_outcome st =
  let visited = ref [] in
  for i = st.nvisited - 1 downto 0 do
    visited := st.cp.state_names.(st.visited.(i)) :: !visited
  done;
  { Parse.accepted = st.p_accepted; error = st.p_error; states_visited = !visited }

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let do_extract st (ex : cextract) =
  if ex.ex_hid < 0 then invalid_arg (Printf.sprintf "Parse: undeclared header %s" ex.ex_name);
  if Bitstring.length st.pkt - st.pos < ex.ex_width then false
  else begin
    Array.unsafe_set st.valid ex.ex_hid true;
    let pos = st.pos in
    let n = Array.length ex.ex_slots in
    for i = 0 to n - 1 do
      Array.unsafe_set st.fields
        (Array.unsafe_get ex.ex_slots i)
        (Bitstring.extract st.pkt ~off:(pos + Array.unsafe_get ex.ex_offs i)
           ~width:(Array.unsafe_get ex.ex_fws i))
    done;
    st.pos <- pos + ex.ex_width;
    true
  end

let finish_parse st ~accepted ~error =
  st.std.(std_slot Ast.Parser_error) <- Int64.logand (Int64.of_int error) (mask_of 4);
  st.payload_off <- st.pos;
  st.p_accepted <- accepted;
  st.p_error <- error

let reject_parse st error =
  if st.cp.on_reject_continue then finish_parse st ~accepted:true ~error
  else finish_parse st ~accepted:false ~error

let accept_parse st =
  match st.cp.ck_verify with
  | Some ok when not (ok st) -> reject_parse st Stdmeta.error_checksum
  | Some _ | None -> finish_parse st ~accepted:true ~error:Stdmeta.error_none

let run_parser st bits =
  let cp = st.cp in
  st.pkt <- bits;
  st.pos <- 0;
  st.nvisited <- 0;
  st.std.(std_slot Ast.Packet_length) <-
    Int64.logand (Int64.of_int (Bitstring.length bits / 8)) (mask_of 32);
  let states = cp.pstates in
  if Array.length states = 0 then accept_parse st
  else begin
    let rec go idx budget =
      if budget <= 0 then reject_parse st Stdmeta.error_underrun
      else begin
        let cs = Array.unsafe_get states idx in
        if st.track_states then begin
          st.visited.(st.nvisited) <- cs.cs_id;
          st.nvisited <- st.nvisited + 1
        end;
        let exs = cs.cs_extracts in
        let n = Array.length exs in
        let rec ex i = i >= n || (do_extract st (Array.unsafe_get exs i) && ex (i + 1)) in
        if not (ex 0) then reject_parse st Stdmeta.error_underrun
        else begin
          match cs.cs_trans st with
          | -1 -> accept_parse st
          | -2 -> reject_parse st Stdmeta.error_reject
          | target when target >= 0 -> go target (budget - 1)
          | bad ->
              invalid_arg
                (Printf.sprintf "Parse: undeclared state %s" cp.bad_pstates.(-3 - bad))
        end
      end
    in
    go 0 cp.max_visits
  end

let run_ingress st =
  st.in_egress <- false;
  run_ops st.cp.cp_ingress st

let run_egress st =
  st.in_egress <- true;
  run_ops st.cp.cp_egress st

let deparse st =
  let cp = st.cp in
  (match cp.ck_update with Some f -> f st | None -> ());
  let b = st.out_buf in
  Builder.reset b;
  let emits = cp.emits in
  for i = 0 to Array.length emits - 1 do
    let em = Array.unsafe_get emits i in
    (* [Deparse.run] goes through [Env.is_valid], which raises first on an
       undeclared name *)
    if em.em_hid < 0 then invalid_arg (Printf.sprintf "Env: undeclared header %s" em.em_name);
    if Array.unsafe_get st.valid em.em_hid then begin
      let n = Array.length em.em_slots in
      for k = 0 to n - 1 do
        Builder.add_int64 b
          ~width:(Array.unsafe_get em.em_fws k)
          (Array.unsafe_get st.fields (Array.unsafe_get em.em_slots k))
      done
    end
  done;
  Builder.add_sub b st.pkt ~off:st.payload_off ~len:(Bitstring.length st.pkt - st.payload_off);
  Builder.contents b

(* Name resolution for the by-name field writes below, raising [Env]'s
   messages for undeclared names. *)
let header_exn lay h =
  match header_id lay h with
  | Some hid -> hid
  | None -> invalid_arg (Printf.sprintf "Env: undeclared header %s" h)

let slot_exn lay h f =
  match field_slot lay h f with
  | Some slot -> slot
  | None -> invalid_arg (Printf.sprintf "Env: undeclared field %s.%s" h f)

(* Fault injection against the staged state: mirrors [Device.corrupt],
   which XORs a mask into a field through [Env.get_field]/[set_field]. *)
let corrupt_field st h f mask =
  let lay = st.cp.lay in
  let hid = header_exn lay h in
  let slot = slot_exn lay h f in
  if st.valid.(hid) then
    st.fields.(slot) <-
      Int64.logand
        (Int64.logxor st.fields.(slot) (Int64.logand mask lay.slot_mask.(slot)))
        lay.slot_mask.(slot)

(* A generated packet's field mutation with [Env]'s semantics: the
   [Env.is_valid] guard (an invalid header is left alone), then
   [Env.get_field]'s width and [Env.set_field]'s mask. *)
let mutate_field st h f v =
  let lay = st.cp.lay in
  if st.valid.(header_exn lay h) then begin
    let slot = slot_exn lay h f in
    st.fields.(slot) <- Int64.logand (v lay.slot_width.(slot)) lay.slot_mask.(slot)
  end

(* ------------------------------------------------------------------ *)
(* Per-domain compilation cache (spec hooks only)                      *)
(* ------------------------------------------------------------------ *)

(* Keyed on the program's physical identity; safe across domains because
   each domain holds its own cache (no sharing, no locks). Bounded, LRU by
   move-to-front. *)
let spec_cache_max = 32

let spec_cache : (Ast.program * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let spec_compiled prog =
  let cache = Domain.DLS.get spec_cache in
  match !cache with
  | (p0, cp) :: _ when p0 == prog -> cp
  | entries -> (
      match List.find_opt (fun (p, _) -> p == prog) entries with
      | Some ((_, cp) as hit) ->
          cache := hit :: List.filter (fun (p, _) -> p != prog) entries;
          cp
      | None ->
          let cp = compile prog in
          cache := take spec_cache_max ((prog, cp) :: entries);
          cp)
