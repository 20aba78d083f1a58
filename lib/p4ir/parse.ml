module Bitstring = Bitutil.Bitstring

type hooks = {
  on_reject : [ `Drop | `Continue ];
  verify_checksum : bool;
  max_steps : int;
}

let spec_hooks = { on_reject = `Drop; verify_checksum = true; max_steps = 64 }

let lenient_hooks = { on_reject = `Continue; verify_checksum = false; max_steps = 64 }

type outcome = { accepted : bool; error : int; states_visited : string list }

let extract_header env reader (hd : Ast.header_decl) =
  let width = Ast.header_width hd in
  if Bitstring.Reader.remaining reader < width then false
  else begin
    Env.set_valid env hd.h_name;
    List.iter
      (fun (f : Ast.field_decl) ->
        let v = Bitstring.Reader.read reader f.f_width in
        Env.set_field env hd.h_name f.f_name (Value.make ~width:f.f_width v))
      hd.h_fields;
    true
  end

let keyset_matches key (value, mask_opt) =
  match mask_opt with
  | None -> Value.to_int64 key = Value.to_int64 value
  | Some mask ->
      Value.matches_mask key ~value:(Value.to_int64 value) ~mask:(Value.to_int64 mask)

let select_target ctx keys cases default =
  let key_values = List.map (Exec.eval ctx) keys in
  let matching (case : Ast.select_case) =
    List.length case.sc_keysets = List.length key_values
    && List.for_all2 keyset_matches key_values case.sc_keysets
  in
  match List.find_opt matching cases with
  | Some case -> case.Ast.sc_target
  | None -> default

(* Verify the IPv4 header checksum from the extracted field values. *)
let ipv4_checksum_ok env =
  if not (Env.is_valid env "ipv4") then true
  else
    match Ast.find_header (Env.program env) "ipv4" with
    | None -> true
    | Some hd ->
        let w = Bitstring.Writer.create () in
        List.iter
          (fun (f : Ast.field_decl) ->
            Bitstring.Writer.push_int64 w ~width:f.f_width
              (Value.to_int64 (Env.get_field env "ipv4" f.f_name)))
          hd.h_fields;
        Bitutil.Checksum.valid (Bitstring.to_string (Bitstring.Writer.contents w))

let run ?(hooks = spec_hooks) ctx bits =
  let env = Exec.env ctx in
  let program = Env.program env in
  Env.set_std env Ast.Packet_length
    (Value.of_int ~width:32 (Bitstring.length bits / 8));
  let reader = Bitstring.Reader.create bits in
  let visited = ref [] in
  let finish ~accepted ~error =
    Env.set_std env Ast.Parser_error (Value.of_int ~width:4 error);
    Env.set_payload env (Bitstring.Reader.rest reader);
    { accepted; error; states_visited = List.rev !visited }
  in
  let reject error =
    match hooks.on_reject with
    | `Drop -> finish ~accepted:false ~error
    | `Continue -> finish ~accepted:true ~error
  in
  let accept () =
    if
      hooks.verify_checksum && program.Ast.p_verify_ipv4_checksum
      && not (ipv4_checksum_ok env)
    then reject Stdmeta.error_checksum
    else finish ~accepted:true ~error:Stdmeta.error_none
  in
  let rec step state_name budget =
    if budget <= 0 then reject Stdmeta.error_underrun
    else
      match Ast.find_state program state_name with
      | None -> invalid_arg (Printf.sprintf "Parse: undeclared state %s" state_name)
      | Some state ->
          visited := state.ps_name :: !visited;
          let extract_ok =
            List.for_all
              (fun hname ->
                match Ast.find_header program hname with
                | None -> invalid_arg (Printf.sprintf "Parse: undeclared header %s" hname)
                | Some hd -> extract_header env reader hd)
              state.ps_extracts
          in
          if not extract_ok then reject Stdmeta.error_underrun
          else
            let target =
              match state.ps_transition with
              | Direct t -> t
              | Select (keys, cases, default) -> select_target ctx keys cases default
            in
            (match target with
            | To_accept -> accept ()
            | To_reject -> reject Stdmeta.error_reject
            | To_state s -> step s (budget - 1))
  in
  match program.Ast.p_parser with
  | [] -> accept ()
  | start :: _ -> step start.Ast.ps_name hooks.max_steps
