type error = { loc : string; msg : string }

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.loc e.msg

let ( let* ) = Result.bind

let rec expr_width program ~params (e : Ast.expr) : (int, string) result =
  let open Ast in
  match e with
  | Const v -> Ok (Value.width v)
  | Field (h, f) -> (
      match find_header program h with
      | None -> Error (Printf.sprintf "undeclared header %s" h)
      | Some hd -> (
          match find_field hd f with
          | None -> Error (Printf.sprintf "undeclared field %s.%s" h f)
          | Some fd -> Ok fd.f_width))
  | Meta m -> (
      match find_meta program m with
      | None -> Error (Printf.sprintf "undeclared metadata %s" m)
      | Some fd -> Ok fd.f_width)
  | Std sf -> Ok (std_width sf)
  | Param p -> (
      match List.find_opt (fun (fd : field_decl) -> String.equal fd.f_name p) params with
      | None -> Error (Printf.sprintf "unbound action parameter %s" p)
      | Some fd -> Ok fd.f_width)
  | Valid h ->
      if find_header program h = None then Error (Printf.sprintf "undeclared header %s" h)
      else Ok 1
  | Un (BNot, e1) -> expr_width program ~params e1
  | Un (LNot, e1) ->
      let* w = expr_width program ~params e1 in
      if w <> 1 then Error "logical not over non-boolean" else Ok 1
  | Slice (e1, msb, lsb) ->
      let* w = expr_width program ~params e1 in
      if lsb < 0 || msb < lsb || msb >= w then
        Error (Printf.sprintf "slice [%d:%d] out of range for width %d" msb lsb w)
      else Ok (msb - lsb + 1)
  | Concat (e1, e2) ->
      let* w1 = expr_width program ~params e1 in
      let* w2 = expr_width program ~params e2 in
      if w1 + w2 > 64 then Error "concat wider than 64 bits" else Ok (w1 + w2)
  | Bin ((Shl | Shr), e1, e2) ->
      let* w1 = expr_width program ~params e1 in
      let* _ = expr_width program ~params e2 in
      Ok w1
  | Bin ((LAnd | LOr), e1, e2) ->
      let* w1 = expr_width program ~params e1 in
      let* w2 = expr_width program ~params e2 in
      if w1 <> 1 || w2 <> 1 then Error "logical operator over non-boolean" else Ok 1
  | Bin ((Eq | Neq | Lt | Le | Gt | Ge), e1, e2) ->
      let* w1 = expr_width program ~params e1 in
      let* w2 = expr_width program ~params e2 in
      if w1 <> w2 then Error (Printf.sprintf "comparison width mismatch (%d vs %d)" w1 w2)
      else Ok 1
  | Bin ((Add | Sub | Mul | BAnd | BOr | BXor), e1, e2) ->
      let* w1 = expr_width program ~params e1 in
      let* w2 = expr_width program ~params e2 in
      if w1 <> w2 then Error (Printf.sprintf "operand width mismatch (%d vs %d)" w1 w2)
      else Ok w1

let check program =
  let open Ast in
  let errors = ref [] in
  let err loc fmt = Printf.ksprintf (fun msg -> errors := { loc; msg } :: !errors) fmt in
  let check_unique loc names what =
    let sorted = List.sort String.compare names in
    let rec dups = function
      | a :: (b :: _ as rest) ->
          if String.equal a b then err loc "duplicate %s %s" what a;
          dups rest
      | [ _ ] | [] -> ()
    in
    dups sorted
  in
  let expr loc ~params e =
    match expr_width program ~params e with
    | Ok w -> Some w
    | Error msg ->
        err loc "%s" msg;
        None
  in
  let expect_bool loc ~params e what =
    match expr loc ~params e with
    | Some 1 | None -> ()
    | Some w -> err loc "%s must be boolean (width 1), got width %d" what w
  in

  (* headers and metadata *)
  check_unique "headers" (List.map (fun h -> h.h_name) program.p_headers) "header";
  List.iter
    (fun hd ->
      check_unique ("header " ^ hd.h_name) (List.map (fun f -> f.f_name) hd.h_fields) "field";
      List.iter
        (fun fd ->
          if fd.f_width < 1 || fd.f_width > 64 then
            err ("header " ^ hd.h_name) "field %s has width %d (must be 1..64)" fd.f_name
              fd.f_width)
        hd.h_fields)
    program.p_headers;
  check_unique "metadata" (List.map (fun f -> f.f_name) program.p_metadata) "metadata field";
  List.iter
    (fun fd ->
      if fd.f_width < 1 || fd.f_width > 64 then
        err "metadata" "field %s has width %d (must be 1..64)" fd.f_name fd.f_width)
    program.p_metadata;
  check_unique "counters" program.p_counters "counter";
  check_unique "registers" (List.map (fun (r : register_decl) -> r.r_name) program.p_registers)
    "register";
  List.iter
    (fun (r : register_decl) ->
      if r.r_width < 1 || r.r_width > 64 then
        err "registers" "register %s has width %d (must be 1..64)" r.r_name r.r_width;
      if r.r_size < 1 then err "registers" "register %s has size %d" r.r_name r.r_size)
    program.p_registers;

  (* parser *)
  check_unique "parser" (List.map (fun s -> s.ps_name) program.p_parser) "state";
  if program.p_parser = [] then err "parser" "no states (need at least a start state)";
  List.iter
    (fun state ->
      let loc = "parser state " ^ state.ps_name in
      List.iter
        (fun h -> if find_header program h = None then err loc "extracts undeclared header %s" h)
        state.ps_extracts;
      let check_target = function
        | To_state s ->
            if find_state program s = None then err loc "transition to undeclared state %s" s
        | To_accept | To_reject -> ()
      in
      match state.ps_transition with
      | Direct t -> check_target t
      | Select (keys, cases, default) ->
          check_target default;
          let widths = List.map (fun k -> expr loc ~params:[] k) keys in
          List.iter
            (fun case ->
              check_target case.sc_target;
              if List.length case.sc_keysets <> List.length keys then
                err loc "select case keyset arity mismatch"
              else
                List.iter2
                  (fun (v, mask) w ->
                    match w with
                    | Some w ->
                        if Value.width v <> w then
                          err loc "select case value width %d, key width %d" (Value.width v) w;
                        (match mask with
                        | Some m when Value.width m <> w ->
                            err loc "select case mask width %d, key width %d" (Value.width m) w
                        | Some _ | None -> ())
                    | None -> ())
                  case.sc_keysets widths)
            cases)
    program.p_parser;

  (* statements; [params] gives action-parameter scope *)
  let rec check_stmt loc ~params (s : stmt) =
    match s with
    | Nop -> ()
    | Assign (lv, e) -> (
        let lw =
          match lv with
          | LField (h, f) -> expr loc ~params (Field (h, f))
          | LMeta m -> expr loc ~params (Meta m)
          | LStd sf -> Some (std_width sf)
        in
        let rw = expr loc ~params e in
        match (lw, rw) with
        | Some lw, Some rw when lw <> rw ->
            err loc "assignment width mismatch (%d := %d)" lw rw
        | (Some _ | None), (Some _ | None) -> ())
    | If (cond, then_, else_) ->
        expect_bool loc ~params cond "if condition";
        List.iter (check_stmt loc ~params) then_;
        List.iter (check_stmt loc ~params) else_
    | Apply t -> if find_table program t = None then err loc "applies undeclared table %s" t
    | SetValid h | SetInvalid h ->
        if find_header program h = None then err loc "references undeclared header %s" h
    | MarkToDrop -> ()
    | Count c ->
        if not (List.mem c program.p_counters) then err loc "undeclared counter %s" c
    | Assert (cond, _) -> expect_bool loc ~params cond "assert condition"
    | RegRead (lv, reg, idx) -> (
        ignore (expr loc ~params idx);
        match find_register program reg with
        | None -> err loc "undeclared register %s" reg
        | Some r -> (
            let lw =
              match lv with
              | LField (h, f) -> expr loc ~params (Field (h, f))
              | LMeta m -> expr loc ~params (Meta m)
              | LStd sf -> Some (std_width sf)
            in
            match lw with
            | Some lw when lw <> r.r_width ->
                err loc "register %s read width mismatch (%d := %d)" reg lw r.r_width
            | Some _ | None -> ()))
    | RegWrite (reg, idx, value) -> (
        ignore (expr loc ~params idx);
        match find_register program reg with
        | None -> err loc "undeclared register %s" reg
        | Some r -> (
            match expr loc ~params value with
            | Some w when w <> r.r_width ->
                err loc "register %s write width mismatch (%d := %d)" reg r.r_width w
            | Some _ | None -> ()))
  in

  (* actions *)
  check_unique "actions" (List.map (fun a -> a.a_name) program.p_actions) "action";
  List.iter
    (fun action ->
      let loc = "action " ^ action.a_name in
      check_unique loc (List.map (fun p -> p.f_name) action.a_params) "parameter";
      List.iter
        (fun p ->
          if p.f_width < 1 || p.f_width > 64 then
            err loc "parameter %s has width %d (must be 1..64)" p.f_name p.f_width)
        action.a_params;
      List.iter (check_stmt loc ~params:action.a_params) action.a_body)
    program.p_actions;

  (* tables *)
  check_unique "tables" (List.map (fun t -> t.t_name) program.p_tables) "table";
  List.iter
    (fun tbl ->
      let loc = "table " ^ tbl.t_name in
      if tbl.t_size < 1 then err loc "size must be positive";
      List.iter (fun (k, _) -> ignore (expr loc ~params:[] k)) tbl.t_keys;
      let lpm_keys =
        List.filter (fun (_, kind) -> kind = Lpm) tbl.t_keys
      in
      if List.length lpm_keys > 1 then err loc "at most one LPM key is allowed";
      List.iter
        (fun a -> if find_action program a = None then err loc "undeclared action %s" a)
        tbl.t_actions;
      (match find_action program tbl.t_default_action with
      | None -> err loc "undeclared default action %s" tbl.t_default_action
      | Some act ->
          if List.length tbl.t_default_args <> List.length act.a_params then
            err loc "default action argument arity mismatch"
          else
            List.iter2
              (fun arg (p : field_decl) ->
                if Value.width arg <> p.f_width then
                  err loc "default action argument width mismatch for %s" p.f_name)
              tbl.t_default_args act.a_params))
    program.p_tables;

  (* controls and deparser *)
  List.iter (check_stmt "ingress" ~params:[]) program.p_ingress;
  List.iter (check_stmt "egress" ~params:[]) program.p_egress;
  List.iter
    (fun h -> if find_header program h = None then err "deparser" "emits undeclared header %s" h)
    program.p_deparser;

  match List.rev !errors with [] -> Ok () | errs -> Error errs
