module Ast = P4ir.Ast

type t = { endpoint : Channel.endpoint; pump : unit -> unit }

let create ~pump endpoint = { endpoint; pump }

let rpc t msg =
  Channel.send t.endpoint (Wire.encode_host msg);
  t.pump ();
  match Channel.recv t.endpoint with
  | None -> Error "no reply from device agent"
  | Some raw -> (
      match Wire.decode_dev raw with
      | Ok (Wire.Error_msg e) -> Error ("device: " ^ e)
      | Ok m -> Ok m
      | Error e -> Error ("decode: " ^ e))

let expect_ack = function
  | Ok Wire.Ack -> Ok ()
  | Ok _ -> Error "unexpected reply (wanted Ack)"
  | Error _ as e -> e

let configure_generator t streams = expect_ack (rpc t (Wire.Configure_generator streams))

let configure_checker t rules = expect_ack (rpc t (Wire.Configure_checker rules))

let start_generator t = expect_ack (rpc t Wire.Start_generator)

let read_checker t =
  match rpc t Wire.Read_checker with
  | Ok (Wire.Checker_report cs) -> Ok cs
  | Ok _ -> Error "unexpected reply (wanted Checker_report)"
  | Error e -> Error e

let read_status t =
  match rpc t Wire.Read_status with
  | Ok (Wire.Status_report ss) -> Ok ss
  | Ok _ -> Error "unexpected reply (wanted Status_report)"
  | Error e -> Error e

let read_stage_counters t =
  match rpc t Wire.Read_stage_counters with
  | Ok (Wire.Stage_counters cs) -> Ok cs
  | Ok _ -> Error "unexpected reply (wanted Stage_counters)"
  | Error e -> Error e

let read_register t name =
  match rpc t (Wire.Read_register name) with
  | Ok (Wire.Register_dump cells) -> Ok cells
  | Ok _ -> Error "unexpected reply (wanted Register_dump)"
  | Error e -> Error e

let clear_test_state t = expect_ack (rpc t Wire.Clear_test_state)

let stream ?(count = 1) ?(interval_ns = 1000.0) ?(mutations = []) template =
  {
    Wire.s_template = template;
    s_count = count;
    s_interval_ns = interval_ns;
    s_mutations = mutations;
  }

let expect ?filter ~name e = { Wire.r_name = name; r_filter = filter; r_expect = e }

let expect_port port =
  expect ~name:(Printf.sprintf "egress=%d" port)
    (Ast.Bin (Ast.Eq, Ast.Std Ast.Egress_spec, Ast.Const (P4ir.Value.of_int ~width:9 port)))

let mgmt_bytes t = Channel.bytes_sent t.endpoint
