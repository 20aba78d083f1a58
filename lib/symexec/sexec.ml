module Ast = P4ir.Ast
module Value = P4ir.Value
module Entry = P4ir.Entry
module Runtime = P4ir.Runtime
module Stdmeta = P4ir.Stdmeta
module Bitstring = Bitutil.Bitstring

type ending = Rejected of int | Dropped of string | Forwarded

type path = {
  p_conds : Sym.t list;
  p_ending : ending;
  p_ingress_port : Sym.var;
  p_extracts : (string * (string * Sym.var) list) list;
  p_fields : (string * string * Sym.t) list;
  p_egress : Sym.t;
  p_tables : (string * string) list;
  p_checksum_assumed_ok : bool;
  p_invalid_reads : (string * string) list;
      (* fields read while their header was invalid (reads as zero) *)
}

type run = {
  paths : path list;
  obligations : (Sym.t list * Sym.t * string) list;
  truncated : bool;
}

(* mutable per-branch state, copied at forks *)
type state = {
  fields : (string * string, Sym.t) Hashtbl.t;
  validity : (string, bool) Hashtbl.t;
  metas : (string, Sym.t) Hashtbl.t;
  stds : (Ast.std_field, Sym.t) Hashtbl.t;
  mutable params : (string * Sym.t) list;
  mutable conds : Sym.t list;  (* newest first *)
  mutable extracts : (string * (string * Sym.var) list) list;  (* newest first *)
  mutable tables : (string * string) list;  (* newest first *)
  mutable checksum_assumed : bool;
  mutable invalid_reads : (string * string) list;
}

let copy_state s =
  {
    fields = Hashtbl.copy s.fields;
    validity = Hashtbl.copy s.validity;
    metas = Hashtbl.copy s.metas;
    stds = Hashtbl.copy s.stds;
    params = s.params;
    conds = s.conds;
    extracts = s.extracts;
    tables = s.tables;
    checksum_assumed = s.checksum_assumed;
    invalid_reads = s.invalid_reads;
  }

exception Too_many_paths

let explore ?(max_paths = 4096) (program : Ast.program) runtime =
  (* fresh variables make cross-exploration sharing impossible, so the
     intern table is scoped to this exploration *)
  Sym.new_session ();
  let paths = ref [] in
  let obligations = ref [] in
  let truncated = ref false in
  let ingress_port_var =
    match Sym.fresh_var ~name:"standard_metadata.ingress_port" ~width:9 with
    | Sym.Var v -> v
    | _ -> assert false
  in

  let is_valid st h = Option.value ~default:false (Hashtbl.find_opt st.validity h) in

  let field_width h f =
    match Ast.find_header program h with
    | Some hd -> (
        match Ast.find_field hd f with
        | Some fd -> fd.Ast.f_width
        | None -> invalid_arg (Printf.sprintf "Sexec: field %s.%s" h f))
    | None -> invalid_arg (Printf.sprintf "Sexec: header %s" h)
  in

  let get_field st h f =
    if not (is_valid st h) then begin
      if not (List.mem (h, f) st.invalid_reads) then
        st.invalid_reads <- (h, f) :: st.invalid_reads;
      Sym.of_int ~width:(field_width h f) 0
    end
    else
      match Hashtbl.find_opt st.fields (h, f) with
      | Some e -> e
      | None -> Sym.of_int ~width:(field_width h f) 0
  in

  let meta_width m =
    match Ast.find_meta program m with
    | Some fd -> fd.Ast.f_width
    | None -> invalid_arg (Printf.sprintf "Sexec: metadata %s" m)
  in

  let get_meta st m =
    match Hashtbl.find_opt st.metas m with
    | Some e -> e
    | None -> Sym.of_int ~width:(meta_width m) 0
  in

  let get_std st sf =
    match Hashtbl.find_opt st.stds sf with
    | Some e -> e
    | None -> Sym.of_int ~width:(Ast.std_width sf) 0
  in

  let rec eval st (e : Ast.expr) : Sym.t =
    match e with
    | Ast.Const v -> Sym.const v
    | Ast.Field (h, f) -> get_field st h f
    | Ast.Meta m -> get_meta st m
    | Ast.Std sf -> get_std st sf
    | Ast.Param p -> (
        match List.assoc_opt p st.params with
        | Some e -> e
        | None -> invalid_arg (Printf.sprintf "Sexec: unbound param %s" p))
    | Ast.Valid h -> if is_valid st h then Sym.const Value.tru else Sym.const Value.fls
    | Ast.Bin (op, a, b) -> Sym.bin op (eval st a) (eval st b)
    | Ast.Un (op, a) -> Sym.un op (eval st a)
    | Ast.Slice (a, msb, lsb) -> Sym.slice (eval st a) ~msb ~lsb
    | Ast.Concat (a, b) -> Sym.concat (eval st a) (eval st b)
  in

  let assign st (lv : Ast.lvalue) e =
    match lv with
    | Ast.LField (h, f) -> if is_valid st h then Hashtbl.replace st.fields (h, f) e
    | Ast.LMeta m -> Hashtbl.replace st.metas m e
    | Ast.LStd sf -> Hashtbl.replace st.stds sf e
  in

  let finish st ending =
    if List.length !paths >= max_paths then begin
      truncated := true;
      raise Too_many_paths
    end;
    let fields =
      List.concat_map
        (fun (hd : Ast.header_decl) ->
          if not (is_valid st hd.Ast.h_name) then []
          else
            List.map
              (fun (fd : Ast.field_decl) ->
                (hd.Ast.h_name, fd.Ast.f_name, get_field st hd.Ast.h_name fd.Ast.f_name))
              hd.Ast.h_fields)
        program.Ast.p_headers
    in
    paths :=
      {
        p_conds = List.rev st.conds;
        p_ending = ending;
        p_ingress_port = ingress_port_var;
        p_extracts = List.rev st.extracts;
        p_fields = fields;
        p_egress = get_std st Ast.Egress_spec;
        p_tables = List.rev st.tables;
        p_checksum_assumed_ok = st.checksum_assumed;
        p_invalid_reads = List.rev st.invalid_reads;
      }
      :: !paths
  in

  let drop_value = Sym.of_int ~width:9 Stdmeta.drop_port in

  let dropped st = Sym.equal (get_std st Ast.Egress_spec) drop_value in

  (* branch on a symbolic boolean; skips statically false branches. The
     parent state is dead once both branches ran, so only the true branch
     copies it — the false branch consumes it in place (callers always
     fork in tail position and never touch [st] afterwards). *)
  let fork st cond on_true on_false =
    match Sym.is_const cond with
    | Some v -> if Value.to_bool v then on_true st else on_false st
    | None ->
        let st_t = copy_state st in
        st_t.conds <- cond :: st_t.conds;
        let neg = Sym.not_ cond in
        on_true st_t;
        st.conds <- neg :: st.conds;
        on_false st
  in

  (* ---------------- controls ---------------- *)

  let entry_match_cond st (tbl : Ast.table) (e : Entry.t) =
    let key_exprs = List.map (fun (k, _) -> eval st k) tbl.Ast.t_keys in
    List.fold_left2
      (fun acc key (mk : Entry.mkey) ->
        let w = Sym.width key in
        let cond =
          match mk with
          | Entry.Exact_v v -> Sym.bin Ast.Eq key (Sym.const v)
          | Entry.Lpm_v (v, len) ->
              if len = 0 then Sym.const Value.tru
              else
                Sym.bin Ast.Eq
                  (Sym.bin Ast.Shr key (Sym.of_int ~width:8 (w - len)))
                  (Sym.const (Value.shift_right v (w - len)))
          | Entry.Ternary_v (v, m) ->
              Sym.bin Ast.Eq
                (Sym.bin Ast.BAnd key (Sym.const m))
                (Sym.const (Value.logand v m))
        in
        Sym.bin Ast.LAnd acc cond)
      (Sym.const Value.tru) key_exprs e.Entry.keys
  in

  let rec run_stmts st (stmts : Ast.stmt list) (k : state -> unit) =
    match stmts with
    | [] -> k st
    | s :: rest -> run_stmt st s (fun st -> run_stmts st rest k)

  and run_stmt st (s : Ast.stmt) (k : state -> unit) =
    match s with
    | Ast.Nop -> k st
    | Ast.Assign (lv, e) ->
        assign st lv (eval st e);
        k st
    | Ast.SetValid h ->
        Hashtbl.replace st.validity h true;
        k st
    | Ast.SetInvalid h ->
        Hashtbl.replace st.validity h false;
        List.iter
          (fun (hd : Ast.header_decl) ->
            if String.equal hd.Ast.h_name h then
              List.iter
                (fun (fd : Ast.field_decl) -> Hashtbl.remove st.fields (h, fd.Ast.f_name))
                hd.Ast.h_fields)
          program.Ast.p_headers;
        k st
    | Ast.MarkToDrop ->
        Hashtbl.replace st.stds Ast.Egress_spec drop_value;
        k st
    | Ast.Count _ -> k st
    | Ast.Assert (cond, msg) ->
        obligations := (List.rev st.conds, eval st cond, msg) :: !obligations;
        k st
    | Ast.RegRead (lv, reg, _) ->
        (* stateful memory is havocked: its content depends on packet
           history, which single-packet verification does not model *)
        (match Ast.find_register program reg with
        | Some r ->
            assign st lv (Sym.fresh_var ~name:("reg:" ^ reg) ~width:r.Ast.r_width)
        | None -> invalid_arg (Printf.sprintf "Sexec: register %s" reg));
        k st
    | Ast.RegWrite (_, _, _) -> k st
    | Ast.If (cond, then_, else_) ->
        fork st (eval st cond)
          (fun st -> run_stmts st then_ k)
          (fun st -> run_stmts st else_ k)
    | Ast.Apply name -> apply_table st name k

  and apply_table st name k =
    match Ast.find_table program name with
    | None -> invalid_arg (Printf.sprintf "Sexec: table %s" name)
    | Some tbl ->
        let entries =
          Runtime.entries runtime name
          |> List.stable_sort (fun a b ->
                 let c = compare b.Entry.priority a.Entry.priority in
                 if c <> 0 then c else compare (Entry.specificity b) (Entry.specificity a))
        in
        let run_action st (aname : string) args k =
          match Ast.find_action program aname with
          | None -> invalid_arg (Printf.sprintf "Sexec: action %s" aname)
          | Some action ->
              let saved = st.params in
              st.params <-
                List.map2
                  (fun (p : Ast.field_decl) arg -> (p.Ast.f_name, Sym.const arg))
                  action.Ast.a_params args
                @ saved;
              st.tables <- (name, aname) :: st.tables;
              run_stmts st action.Ast.a_body (fun st ->
                  st.params <- saved;
                  k st)
        in
        (* in priority order: entry_i fires when it matches and none of the
           earlier (higher-ranked) entries match *)
        let rec branch st = function
          | [] -> run_action st tbl.Ast.t_default_action tbl.Ast.t_default_args k
          | e :: rest ->
              fork st (entry_match_cond st tbl e)
                (fun st -> run_action st e.Entry.action e.Entry.args k)
                (fun st -> branch st rest)
        in
        branch st entries
  in

  (* ---------------- parser ---------------- *)

  let extract st hname =
    match Ast.find_header program hname with
    | None -> invalid_arg (Printf.sprintf "Sexec: header %s" hname)
    | Some hd ->
        Hashtbl.replace st.validity hname true;
        let fieldvars =
          List.map
            (fun (fd : Ast.field_decl) ->
              let e =
                Sym.fresh_var
                  ~name:(hname ^ "." ^ fd.Ast.f_name)
                  ~width:fd.Ast.f_width
              in
              Hashtbl.replace st.fields (hname, fd.Ast.f_name) e;
              match e with Sym.Var v -> (fd.Ast.f_name, v) | _ -> assert false)
            hd.Ast.h_fields
        in
        st.extracts <- (hname, fieldvars) :: st.extracts
  in

  let run_pipeline st =
    run_stmts st program.Ast.p_ingress (fun st ->
        if dropped st then finish st (Dropped "ingress")
        else
          run_stmts st program.Ast.p_egress (fun st ->
              if dropped st then finish st (Dropped "egress") else finish st Forwarded))
  in

  let accept st =
    if program.Ast.p_verify_ipv4_checksum && is_valid st "ipv4" then begin
      (* free boolean: the checksum verifies or it does not *)
      let ok = copy_state st in
      ok.checksum_assumed <- true;
      run_pipeline ok;
      (* [st] is dead after this choice: finish it in place *)
      finish st (Rejected Stdmeta.error_checksum)
    end
    else run_pipeline st
  in

  let rec run_state st name budget =
    if budget <= 0 then finish st (Rejected Stdmeta.error_underrun)
    else
      match Ast.find_state program name with
      | None -> invalid_arg (Printf.sprintf "Sexec: state %s" name)
      | Some state ->
          List.iter (extract st) state.Ast.ps_extracts;
          let goto st (t : Ast.ptarget) =
            match t with
            | Ast.To_accept -> accept st
            | Ast.To_reject -> finish st (Rejected Stdmeta.error_reject)
            | Ast.To_state s -> run_state st s (budget - 1)
          in
          (match state.Ast.ps_transition with
          | Ast.Direct t -> goto st t
          | Ast.Select (keys, cases, default) ->
              let key_exprs = List.map (eval st) keys in
              let case_cond (case : Ast.select_case) =
                List.fold_left2
                  (fun acc key (v, mask) ->
                    let c =
                      match mask with
                      | None -> Sym.bin Ast.Eq key (Sym.const v)
                      | Some m ->
                          Sym.bin Ast.Eq
                            (Sym.bin Ast.BAnd key (Sym.const m))
                            (Sym.const (Value.logand v m))
                    in
                    Sym.bin Ast.LAnd acc c)
                  (Sym.const Value.tru) key_exprs case.Ast.sc_keysets
              in
              let rec cases_loop st = function
                | [] -> goto st default
                | case :: rest ->
                    fork st (case_cond case)
                      (fun st -> goto st case.Ast.sc_target)
                      (fun st -> cases_loop st rest)
              in
              cases_loop st cases)
  in

  let st0 =
    {
      fields = Hashtbl.create 16;
      validity = Hashtbl.create 8;
      metas = Hashtbl.create 8;
      stds = Hashtbl.create 4;
      params = [];
      conds = [];
      extracts = [];
      tables = [];
      checksum_assumed = false;
      invalid_reads = [];
    }
  in
  Hashtbl.replace st0.stds Ast.Ingress_port (Sym.Var ingress_port_var);
  (try
     match program.Ast.p_parser with
     | [] -> accept st0
     | start :: _ -> run_state st0 start.Ast.ps_name 64
   with Too_many_paths -> ());
  { paths = List.rev !paths; obligations = List.rev !obligations; truncated = !truncated }

(* ------------------------------------------------------------------ *)
(* Witness rendering                                                   *)
(* ------------------------------------------------------------------ *)

let witness_bits path model =
  let header_bits (hname, fieldvars) =
    let w = Bitstring.Writer.create () in
    List.iter
      (fun ((_, (var : Sym.var)) : string * Sym.var) ->
        Bitstring.Writer.push_int64 w ~width:var.Sym.v_width
          (Value.to_int64 (Value.make ~width:var.Sym.v_width
             (Value.to_int64 (Solver.model_value model var.Sym.v_id)))))
      fieldvars;
    let bits = Bitstring.Writer.contents w in
    (hname, fieldvars, bits)
  in
  let rendered = List.map header_bits path.p_extracts in
  (* repair the ipv4 checksum when the path assumed it verifies *)
  let rendered =
    if not path.p_checksum_assumed_ok then rendered
    else
      List.map
        (fun (hname, fieldvars, bits) ->
          if not (String.equal hname "ipv4") then (hname, fieldvars, bits)
          else begin
            (* locate the checksum field offset *)
            let off = ref 0 in
            let csum_off = ref None in
            List.iter
              (fun ((fname, (var : Sym.var)) : string * Sym.var) ->
                if String.equal fname "checksum" then csum_off := Some !off;
                off := !off + var.Sym.v_width)
              fieldvars;
            match !csum_off with
            | None -> (hname, fieldvars, bits)
            | Some coff ->
                let zeroed = Bitstring.set_int64 bits ~off:coff ~width:16 0L in
                let sum = Bitutil.Checksum.checksum_bits zeroed in
                (hname, fieldvars, Bitstring.set_int64 zeroed ~off:coff ~width:16 (Int64.of_int sum))
          end)
        rendered
  in
  let payload = Bitstring.of_string (String.make 16 '\000') in
  Bitstring.concat (List.map (fun (_, _, b) -> b) rendered @ [ payload ])
