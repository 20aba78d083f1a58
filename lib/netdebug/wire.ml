module Ast = P4ir.Ast
module Value = P4ir.Value
module Bitstring = Bitutil.Bitstring

type mutation =
  | Set_field of string * string * int64
  | Sweep_field of string * string * int64 * int64
  | Random_field of string * string * int

type stream = {
  s_template : Bitstring.t;
  s_count : int;
  s_interval_ns : float;
  s_mutations : mutation list;
}

type rule = { r_name : string; r_filter : Ast.expr option; r_expect : Ast.expr }

type rule_stats = { rs_name : string; rs_matched : int; rs_passed : int; rs_failed : int }

type capture = {
  cap_rule : string;
  cap_port : int;
  cap_time_ns : float;
  cap_bits : Bitstring.t;
}

type checker_summary = {
  cs_total_seen : int;
  cs_rules : rule_stats list;
  cs_captures : capture list;
  cs_pps : float;
  cs_gbps : float;
  cs_lat_mean_ns : float;
  cs_lat_p50_ns : float;
  cs_lat_p99_ns : float;
}

type status_summary = {
  ss_time_ns : float;
  ss_packets_in : int64;
  ss_packets_out : int64;
  ss_queue_drops : int64;
  ss_pipeline_drops : int64;
  ss_queue_depth : int;
}

type host_msg =
  | Configure_generator of stream list
  | Configure_checker of rule list
  | Start_generator
  | Read_checker
  | Read_status
  | Read_stage_counters
  | Read_register of string
  | Clear_test_state

type dev_msg =
  | Ack
  | Error_msg of string
  | Checker_report of checker_summary
  | Status_report of status_summary
  | Stage_counters of (string * int64) list
  | Register_dump of (int * int64) list  (* sparse: non-zero cells only *)

exception Decode_error of string

(* ---------------- primitive codecs ---------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u64 b (v : int64) =
  for i = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let put_f64 b v = put_u64 b (Int64.bits_of_float v)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_bits b bits =
  put_u32 b (Bitstring.length bits);
  Buffer.add_string b (Bitstring.to_string bits)

let need s pos n =
  if !pos + n > String.length s then raise (Decode_error "truncated message")

let get_u8 s pos =
  need s pos 1;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let get_u32 s pos =
  let a = get_u8 s pos in
  let b = get_u8 s pos in
  let c = get_u8 s pos in
  let d = get_u8 s pos in
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let get_u64 s pos =
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 s pos))
  done;
  !v

let get_f64 s pos = Int64.float_of_bits (get_u64 s pos)

let get_string s pos =
  let n = get_u32 s pos in
  need s pos n;
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let get_bits s pos =
  let nbits = get_u32 s pos in
  let nbytes = (nbits + 7) / 8 in
  need s pos nbytes;
  let raw = String.sub s !pos nbytes in
  pos := !pos + nbytes;
  Bitstring.sub (Bitstring.of_string raw) ~off:0 ~len:nbits

let put_list b put items =
  put_u32 b (List.length items);
  List.iter (put b) items

let get_list s pos get =
  let n = get_u32 s pos in
  List.init n (fun _ -> get s pos)

(* ---------------- value / expr codecs ---------------- *)

let put_value b v =
  put_u8 b (Value.width v);
  put_u64 b (Value.to_int64 v)

let get_value s pos =
  let w = get_u8 s pos in
  let v = get_u64 s pos in
  Value.make ~width:w v

let binop_tag (op : Ast.binop) =
  match op with
  | Ast.Add -> 0
  | Ast.Sub -> 1
  | Ast.Mul -> 2
  | Ast.BAnd -> 3
  | Ast.BOr -> 4
  | Ast.BXor -> 5
  | Ast.Shl -> 6
  | Ast.Shr -> 7
  | Ast.Eq -> 8
  | Ast.Neq -> 9
  | Ast.Lt -> 10
  | Ast.Le -> 11
  | Ast.Gt -> 12
  | Ast.Ge -> 13
  | Ast.LAnd -> 14
  | Ast.LOr -> 15

let binop_of_tag = function
  | 0 -> Ast.Add
  | 1 -> Ast.Sub
  | 2 -> Ast.Mul
  | 3 -> Ast.BAnd
  | 4 -> Ast.BOr
  | 5 -> Ast.BXor
  | 6 -> Ast.Shl
  | 7 -> Ast.Shr
  | 8 -> Ast.Eq
  | 9 -> Ast.Neq
  | 10 -> Ast.Lt
  | 11 -> Ast.Le
  | 12 -> Ast.Gt
  | 13 -> Ast.Ge
  | 14 -> Ast.LAnd
  | 15 -> Ast.LOr
  | t -> raise (Decode_error (Printf.sprintf "bad binop tag %d" t))

let std_tag = function
  | Ast.Ingress_port -> 0
  | Ast.Egress_spec -> 1
  | Ast.Packet_length -> 2
  | Ast.Parser_error -> 3

let std_of_tag = function
  | 0 -> Ast.Ingress_port
  | 1 -> Ast.Egress_spec
  | 2 -> Ast.Packet_length
  | 3 -> Ast.Parser_error
  | t -> raise (Decode_error (Printf.sprintf "bad std tag %d" t))

let rec encode_expr b (e : Ast.expr) =
  match e with
  | Ast.Const v ->
      put_u8 b 0;
      put_value b v
  | Ast.Field (h, f) ->
      put_u8 b 1;
      put_string b h;
      put_string b f
  | Ast.Meta m ->
      put_u8 b 2;
      put_string b m
  | Ast.Std sf ->
      put_u8 b 3;
      put_u8 b (std_tag sf)
  | Ast.Param p ->
      put_u8 b 4;
      put_string b p
  | Ast.Bin (op, x, y) ->
      put_u8 b 5;
      put_u8 b (binop_tag op);
      encode_expr b x;
      encode_expr b y
  | Ast.Un (Ast.BNot, x) ->
      put_u8 b 6;
      encode_expr b x
  | Ast.Un (Ast.LNot, x) ->
      put_u8 b 7;
      encode_expr b x
  | Ast.Slice (x, msb, lsb) ->
      put_u8 b 8;
      put_u8 b msb;
      put_u8 b lsb;
      encode_expr b x
  | Ast.Concat (x, y) ->
      put_u8 b 9;
      encode_expr b x;
      encode_expr b y
  | Ast.Valid h ->
      put_u8 b 10;
      put_string b h

let max_expr_depth = 1024

(* [depth] bounds the recursion, so a hostile nesting is a [Decode_error]
   rather than a stack overflow *)
let rec decode_expr_at depth s pos : Ast.expr =
  if depth > max_expr_depth then raise (Decode_error "expression nested too deeply");
  let d = depth + 1 in
  match get_u8 s pos with
  | 0 -> Ast.Const (get_value s pos)
  | 1 ->
      let h = get_string s pos in
      let f = get_string s pos in
      Ast.Field (h, f)
  | 2 -> Ast.Meta (get_string s pos)
  | 3 -> Ast.Std (std_of_tag (get_u8 s pos))
  | 4 -> Ast.Param (get_string s pos)
  | 5 ->
      let op = binop_of_tag (get_u8 s pos) in
      let x = decode_expr_at d s pos in
      let y = decode_expr_at d s pos in
      Ast.Bin (op, x, y)
  | 6 -> Ast.Un (Ast.BNot, decode_expr_at d s pos)
  | 7 -> Ast.Un (Ast.LNot, decode_expr_at d s pos)
  | 8 ->
      let msb = get_u8 s pos in
      let lsb = get_u8 s pos in
      Ast.Slice (decode_expr_at d s pos, msb, lsb)
  | 9 ->
      let x = decode_expr_at d s pos in
      let y = decode_expr_at d s pos in
      Ast.Concat (x, y)
  | 10 -> Ast.Valid (get_string s pos)
  | t -> raise (Decode_error (Printf.sprintf "bad expr tag %d" t))

let decode_expr s pos = decode_expr_at 1 s pos

(* ---------------- message bodies ---------------- *)

let put_mutation b = function
  | Set_field (h, f, v) ->
      put_u8 b 0;
      put_string b h;
      put_string b f;
      put_u64 b v
  | Sweep_field (h, f, start, step) ->
      put_u8 b 1;
      put_string b h;
      put_string b f;
      put_u64 b start;
      put_u64 b step
  | Random_field (h, f, seed) ->
      put_u8 b 2;
      put_string b h;
      put_string b f;
      put_u32 b seed

let get_mutation s pos =
  match get_u8 s pos with
  | 0 ->
      let h = get_string s pos in
      let f = get_string s pos in
      Set_field (h, f, get_u64 s pos)
  | 1 ->
      let h = get_string s pos in
      let f = get_string s pos in
      let start = get_u64 s pos in
      let step = get_u64 s pos in
      Sweep_field (h, f, start, step)
  | 2 ->
      let h = get_string s pos in
      let f = get_string s pos in
      Random_field (h, f, get_u32 s pos)
  | t -> raise (Decode_error (Printf.sprintf "bad mutation tag %d" t))

let put_stream b st =
  put_bits b st.s_template;
  put_u32 b st.s_count;
  put_f64 b st.s_interval_ns;
  put_list b put_mutation st.s_mutations

let get_stream s pos =
  let s_template = get_bits s pos in
  let s_count = get_u32 s pos in
  let s_interval_ns = get_f64 s pos in
  let s_mutations = get_list s pos get_mutation in
  { s_template; s_count; s_interval_ns; s_mutations }

let put_rule b r =
  put_string b r.r_name;
  (match r.r_filter with
  | None -> put_u8 b 0
  | Some e ->
      put_u8 b 1;
      encode_expr b e);
  encode_expr b r.r_expect

let get_rule s pos =
  let r_name = get_string s pos in
  let r_filter = match get_u8 s pos with 0 -> None | _ -> Some (decode_expr s pos) in
  let r_expect = decode_expr s pos in
  { r_name; r_filter; r_expect }

let put_rule_stats b rs =
  put_string b rs.rs_name;
  put_u32 b rs.rs_matched;
  put_u32 b rs.rs_passed;
  put_u32 b rs.rs_failed

let get_rule_stats s pos =
  let rs_name = get_string s pos in
  let rs_matched = get_u32 s pos in
  let rs_passed = get_u32 s pos in
  let rs_failed = get_u32 s pos in
  { rs_name; rs_matched; rs_passed; rs_failed }

let put_capture b c =
  put_string b c.cap_rule;
  put_u32 b c.cap_port;
  put_f64 b c.cap_time_ns;
  put_bits b c.cap_bits

let get_capture s pos =
  let cap_rule = get_string s pos in
  let cap_port = get_u32 s pos in
  let cap_time_ns = get_f64 s pos in
  let cap_bits = get_bits s pos in
  { cap_rule; cap_port; cap_time_ns; cap_bits }

(* ---------------- top-level messages ---------------- *)

let encode_host msg =
  let b = Buffer.create 64 in
  (match msg with
  | Configure_generator streams ->
      put_u8 b 0;
      put_list b put_stream streams
  | Configure_checker rules ->
      put_u8 b 1;
      put_list b put_rule rules
  | Start_generator -> put_u8 b 2
  | Read_checker -> put_u8 b 3
  | Read_status -> put_u8 b 4
  | Read_stage_counters -> put_u8 b 5
  | Read_register name ->
      put_u8 b 7;
      put_string b name
  | Clear_test_state -> put_u8 b 6);
  Buffer.contents b

let decode_host s =
  try
    let pos = ref 0 in
    let msg =
      match get_u8 s pos with
      | 0 -> Configure_generator (get_list s pos get_stream)
      | 1 -> Configure_checker (get_list s pos get_rule)
      | 2 -> Start_generator
      | 3 -> Read_checker
      | 4 -> Read_status
      | 5 -> Read_stage_counters
      | 6 -> Clear_test_state
      | 7 -> Read_register (get_string s pos)
      | t -> raise (Decode_error (Printf.sprintf "bad host tag %d" t))
    in
    if !pos <> String.length s then raise (Decode_error "trailing bytes");
    Ok msg
  with Decode_error e -> Error e

let encode_dev msg =
  let b = Buffer.create 64 in
  (match msg with
  | Ack -> put_u8 b 0
  | Error_msg e ->
      put_u8 b 1;
      put_string b e
  | Checker_report cs ->
      put_u8 b 2;
      put_u32 b cs.cs_total_seen;
      put_list b put_rule_stats cs.cs_rules;
      put_list b put_capture cs.cs_captures;
      put_f64 b cs.cs_pps;
      put_f64 b cs.cs_gbps;
      put_f64 b cs.cs_lat_mean_ns;
      put_f64 b cs.cs_lat_p50_ns;
      put_f64 b cs.cs_lat_p99_ns
  | Status_report ss ->
      put_u8 b 3;
      put_f64 b ss.ss_time_ns;
      put_u64 b ss.ss_packets_in;
      put_u64 b ss.ss_packets_out;
      put_u64 b ss.ss_queue_drops;
      put_u64 b ss.ss_pipeline_drops;
      put_u32 b ss.ss_queue_depth
  | Stage_counters cs ->
      put_u8 b 4;
      put_list b
        (fun b (name, v) ->
          put_string b name;
          put_u64 b v)
        cs
  | Register_dump cells ->
      put_u8 b 5;
      put_list b
        (fun b (idx, v) ->
          put_u32 b idx;
          put_u64 b v)
        cells);
  Buffer.contents b

let decode_dev s =
  try
    let pos = ref 0 in
    let msg =
      match get_u8 s pos with
      | 0 -> Ack
      | 1 -> Error_msg (get_string s pos)
      | 2 ->
          let cs_total_seen = get_u32 s pos in
          let cs_rules = get_list s pos get_rule_stats in
          let cs_captures = get_list s pos get_capture in
          let cs_pps = get_f64 s pos in
          let cs_gbps = get_f64 s pos in
          let cs_lat_mean_ns = get_f64 s pos in
          let cs_lat_p50_ns = get_f64 s pos in
          let cs_lat_p99_ns = get_f64 s pos in
          Checker_report
            { cs_total_seen; cs_rules; cs_captures; cs_pps; cs_gbps; cs_lat_mean_ns;
              cs_lat_p50_ns; cs_lat_p99_ns }
      | 3 ->
          let ss_time_ns = get_f64 s pos in
          let ss_packets_in = get_u64 s pos in
          let ss_packets_out = get_u64 s pos in
          let ss_queue_drops = get_u64 s pos in
          let ss_pipeline_drops = get_u64 s pos in
          let ss_queue_depth = get_u32 s pos in
          Status_report
            { ss_time_ns; ss_packets_in; ss_packets_out; ss_queue_drops;
              ss_pipeline_drops; ss_queue_depth }
      | 4 ->
          Stage_counters
            (get_list s pos (fun s pos ->
                 let name = get_string s pos in
                 let v = get_u64 s pos in
                 (name, v)))
      | 5 ->
          Register_dump
            (get_list s pos (fun s pos ->
                 let idx = get_u32 s pos in
                 let v = get_u64 s pos in
                 (idx, v)))
      | t -> raise (Decode_error (Printf.sprintf "bad dev tag %d" t))
    in
    if !pos <> String.length s then raise (Decode_error "trailing bytes");
    Ok msg
  with Decode_error e -> Error e
