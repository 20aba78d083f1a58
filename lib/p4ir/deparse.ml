module Bitstring = Bitutil.Bitstring

let header_bits env hname =
  match Ast.find_header (Env.program env) hname with
  | None -> invalid_arg (Printf.sprintf "Deparse: undeclared header %s" hname)
  | Some hd ->
      let w = Bitstring.Writer.create () in
      List.iter
        (fun (f : Ast.field_decl) ->
          Bitstring.Writer.push_int64 w ~width:f.f_width
            (Value.to_int64 (Env.get_field env hname f.f_name)))
        hd.h_fields;
      Bitstring.Writer.contents w

let ipv4_checksum_of_env env =
  let saved = Env.get_field env "ipv4" "checksum" in
  Env.set_field env "ipv4" "checksum" (Value.zero 16);
  let bits = header_bits env "ipv4" in
  Env.set_field env "ipv4" "checksum" saved;
  Bitutil.Checksum.checksum_bits bits

let run ?update_ipv4_checksum env =
  let program = Env.program env in
  let update =
    Option.value update_ipv4_checksum ~default:program.Ast.p_update_ipv4_checksum
  in
  if update && Ast.find_header program "ipv4" <> None && Env.is_valid env "ipv4" then
    Env.set_field env "ipv4" "checksum" (Value.of_int ~width:16 (ipv4_checksum_of_env env));
  let w = Bitstring.Writer.create () in
  List.iter
    (fun hname ->
      if Env.is_valid env hname then Bitstring.Writer.push_bits w (header_bits env hname))
    program.Ast.p_deparser;
  Bitstring.Writer.push_bits w (Env.payload env);
  Bitstring.Writer.contents w
