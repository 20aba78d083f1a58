module Ast = P4ir.Ast
module Value = P4ir.Value
module Env = P4ir.Env
module Exec = P4ir.Exec
module Parse = P4ir.Parse
module Device = Target.Device
module Bitstring = Bitutil.Bitstring

type rule_state = {
  rule : Wire.rule;
  mutable matched : int;
  mutable passed : int;
  mutable failed : int;
}

(* failing outputs the summary keeps: the first 64 *)
let capture_limit = 64

type t = {
  program : Ast.program;
  mutable rules : rule_state list;
  mutable total_seen : int;
  mutable scratch : (Env.t * Exec.ctx) option;  (* reused rule-eval context *)
  mutable captures : Wire.capture list;  (* newest first, bounded *)
  lat : Stats.Histogram.t;
  rate : Stats.Rate.t;
  (* cumulative verdict counters in the device registry; unlike the
     per-test-run [rule_state] tallies, [clear] never resets these *)
  c_seen : Stats.Counter.t;
  c_pass : Stats.Counter.t;
  c_fail : Stats.Counter.t;
}

let on_output t (out : Device.output) =
  t.total_seen <- t.total_seen + 1;
  Stats.Counter.incr t.c_seen;
  Stats.Histogram.add t.lat (out.Device.o_out_time_ns -. out.Device.o_in_time_ns);
  Stats.Rate.record t.rate ~now_ns:out.Device.o_out_time_ns
    ~bytes:(Bitstring.byte_length out.Device.o_bits);
  (* rule evaluation needs the emission re-parsed into header fields — a
     full interpreter context per packet. With no rules armed (the common
     case outside a validation run: soak background traffic, fabric
     forwarding hops) none of that is observable, so skip it and keep the
     tap at counter-and-histogram cost. *)
  if t.rules <> [] then begin
  (* the full interpreter context the re-parse needs is kept and reset
     between emissions rather than rebuilt — rule evaluation is pure
     over the freshly parsed fields *)
  let env, ctx =
    match t.scratch with
    | Some (env, ctx) ->
        Env.reset env;
        (env, ctx)
    | None ->
        let env = Env.create t.program in
        let ctx = Exec.make_ctx ~env ~runtime:(P4ir.Runtime.create ()) () in
        t.scratch <- Some (env, ctx);
        (env, ctx)
  in
  ignore (Parse.run ~hooks:Parse.lenient_hooks ctx out.Device.o_bits);
  Env.set_std env Ast.Egress_spec (Value.of_int ~width:9 (out.Device.o_port land 0x1ff));
  let truthy e = Value.to_bool (Exec.eval ctx e) in
  List.iter
    (fun rs ->
      let applies = match rs.rule.Wire.r_filter with None -> true | Some f -> truthy f in
      if applies then begin
        rs.matched <- rs.matched + 1;
        if truthy rs.rule.Wire.r_expect then begin
          rs.passed <- rs.passed + 1;
          Stats.Counter.incr t.c_pass
        end
        else begin
          rs.failed <- rs.failed + 1;
          Stats.Counter.incr t.c_fail;
          if List.length t.captures < capture_limit then
            t.captures <-
              {
                Wire.cap_rule = rs.rule.Wire.r_name;
                cap_port = out.Device.o_port;
                cap_time_ns = out.Device.o_out_time_ns;
                cap_bits = out.Device.o_bits;
              }
              :: t.captures
        end
      end)
    t.rules
  end

let create ~program device =
  let metrics = Device.metrics device in
  let t =
    {
      program;
      rules = [];
      total_seen = 0;
      scratch = None;
      captures = [];
      lat = Stats.Histogram.create ();
      rate = Stats.Rate.create ();
      c_seen =
        Telemetry.Registry.counter metrics
          ~help:"emissions the checker observed at the check point" "checker/seen";
      c_pass =
        Telemetry.Registry.counter metrics
          ~help:"rule evaluations that held" "checker/pass";
      c_fail =
        Telemetry.Registry.counter metrics
          ~help:"rule evaluations that failed" "checker/fail";
    }
  in
  Device.set_check_tap device (fun out -> on_output t out);
  t

let configure t rules =
  t.rules <- List.map (fun rule -> { rule; matched = 0; passed = 0; failed = 0 }) rules

let rules t = List.map (fun rs -> rs.rule) t.rules

let summary t =
  {
    Wire.cs_total_seen = t.total_seen;
    cs_pps = Stats.Rate.packets_per_sec t.rate;
    cs_gbps = Stats.Rate.gbps t.rate;
    cs_lat_mean_ns = Stats.Histogram.mean t.lat;
    cs_lat_p50_ns = Stats.Histogram.percentile t.lat 50.0;
    cs_lat_p99_ns = Stats.Histogram.percentile t.lat 99.0;
    cs_rules =
      List.map
        (fun rs ->
          {
            Wire.rs_name = rs.rule.Wire.r_name;
            rs_matched = rs.matched;
            rs_passed = rs.passed;
            rs_failed = rs.failed;
          })
        t.rules;
    cs_captures = List.rev t.captures;
  }

let clear t =
  t.total_seen <- 0;
  t.captures <- [];
  Stats.Histogram.clear t.lat;
  Stats.Rate.clear t.rate;
  List.iter
    (fun rs ->
      rs.matched <- 0;
      rs.passed <- 0;
      rs.failed <- 0)
    t.rules
