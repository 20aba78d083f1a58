type error = { message : string; line : int; col : int }

let pp_error ppf e =
  if e.line > 0 then Format.fprintf ppf "line %d, col %d: %s" e.line e.col e.message
  else Format.fprintf ppf "%s" e.message

let parse_string ~name src =
  match Elab.elaborate (Syntax.parse ~name src) with
  | program, entries -> (
      (* the entries must install as written: check them now, not at deploy *)
      match P4ir.Runtime.install_all program (P4ir.Runtime.create ()) entries with
      | Error message -> Error { message; line = 0; col = 0 }
      | Ok () ->
          Ok
            {
              P4ir.Programs.program;
              entries;
              description = Printf.sprintf "parsed from P4 source (%s)" name;
            })
  | exception Lexer.Lex_error (message, line, col) -> Error { message; line; col }
  | exception Syntax.Parse_error (message, line, col) -> Error { message; line; col }
  | exception Elab.Elab_error message -> Error { message; line = 0; col = 0 }

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src ->
      let name = Filename.remove_extension (Filename.basename path) in
      parse_string ~name src
  | exception Sys_error e -> Error { message = e; line = 0; col = 0 }
