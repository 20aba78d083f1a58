type hinst = {
  decl : Ast.header_decl;
  mutable hvalid : bool;
  fields : (string, Value.t) Hashtbl.t;
}

type t = {
  prog : Ast.program;
  headers : (string, hinst) Hashtbl.t;
  meta : (string, Value.t) Hashtbl.t;
  std : (Ast.std_field, Value.t) Hashtbl.t;
  mutable params : (string * Value.t) list;
  mutable pl : Bitutil.Bitstring.t;
}

let create prog =
  let headers = Hashtbl.create 8 in
  List.iter
    (fun (hd : Ast.header_decl) ->
      Hashtbl.add headers hd.h_name { decl = hd; hvalid = false; fields = Hashtbl.create 8 })
    prog.Ast.p_headers;
  { prog; headers; meta = Hashtbl.create 8; std = Hashtbl.create 4; params = [];
    pl = Bitutil.Bitstring.empty }

let program t = t.prog

let reset t =
  Hashtbl.iter
    (fun _ hi ->
      hi.hvalid <- false;
      Hashtbl.reset hi.fields)
    t.headers;
  Hashtbl.reset t.meta;
  Hashtbl.reset t.std;
  t.params <- [];
  t.pl <- Bitutil.Bitstring.empty

let hinst t name =
  match Hashtbl.find_opt t.headers name with
  | Some hi -> hi
  | None -> invalid_arg (Printf.sprintf "Env: undeclared header %s" name)

let is_valid t name = (hinst t name).hvalid

let set_valid t name = (hinst t name).hvalid <- true

let set_invalid t name =
  let hi = hinst t name in
  hi.hvalid <- false;
  Hashtbl.reset hi.fields

let field_decl (hi : hinst) fname =
  match Ast.find_field hi.decl fname with
  | Some f -> f
  | None ->
      invalid_arg (Printf.sprintf "Env: undeclared field %s.%s" hi.decl.Ast.h_name fname)

let get_field t hname fname =
  let hi = hinst t hname in
  let fd = field_decl hi fname in
  if not hi.hvalid then Value.zero fd.Ast.f_width
  else
    match Hashtbl.find_opt hi.fields fname with
    | Some v -> v
    | None -> Value.zero fd.Ast.f_width

let set_field t hname fname v =
  let hi = hinst t hname in
  let fd = field_decl hi fname in
  if hi.hvalid then
    Hashtbl.replace hi.fields fname (Value.make ~width:fd.Ast.f_width (Value.to_int64 v))

let meta_decl t name =
  match Ast.find_meta t.prog name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Env: undeclared metadata %s" name)

let get_meta t name =
  let fd = meta_decl t name in
  match Hashtbl.find_opt t.meta name with Some v -> v | None -> Value.zero fd.Ast.f_width

let set_meta t name v =
  let fd = meta_decl t name in
  Hashtbl.replace t.meta name (Value.make ~width:fd.Ast.f_width (Value.to_int64 v))

let get_std t sf =
  match Hashtbl.find_opt t.std sf with
  | Some v -> v
  | None -> Value.zero (Ast.std_width sf)

let set_std t sf v =
  Hashtbl.replace t.std sf (Value.make ~width:(Ast.std_width sf) (Value.to_int64 v))

let dropped t = Value.to_int (get_std t Ast.Egress_spec) = Stdmeta.drop_port

let with_params t bindings f =
  let saved = t.params in
  t.params <- bindings @ saved;
  Fun.protect ~finally:(fun () -> t.params <- saved) f

let get_param t name =
  match List.assoc_opt name t.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Env: unbound action parameter %s" name)

let payload t = t.pl

let set_payload t b = t.pl <- b

let snapshot_fields t =
  List.concat_map
    (fun (hd : Ast.header_decl) ->
      let hi = hinst t hd.h_name in
      if not hi.hvalid then []
      else
        List.map
          (fun (f : Ast.field_decl) -> (hd.h_name, f.f_name, get_field t hd.h_name f.f_name))
          hd.h_fields)
    t.prog.Ast.p_headers
