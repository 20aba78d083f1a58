module Interp = P4ir.Interp
module Regstate = P4ir.Regstate
module Programs = P4ir.Programs
module Quirks = Sdnet.Quirks
module Device = Target.Device
module Harness = Netdebug.Harness
module Agent = Netdebug.Agent
module Generator = Netdebug.Generator
module Bitstring = Bitutil.Bitstring
module Counter = Stats.Counter
module Registry = Telemetry.Registry

type dev_result = Dev_forwarded of int * Bitstring.t | Dev_dropped

type kind = Verdict | Port | Payload

type divergence = {
  d_kind : kind;
  d_spec : string;
  d_dev : string;
  d_fingerprint : string;
}

type exec = {
  x_spec : Interp.result;
  x_dev : dev_result;
  x_divergence : divergence option;
}

type t = {
  harness : Harness.t;
  quirks : Quirks.t;
  bundle : Programs.bundle;
  coverage : Coverage.t;
  mutable executions : int;
  mutable in_batch : bool;
  c_execs : Counter.t;
  c_divergences : Counter.t;
}

let create ?(quirks = Quirks.default) bundle =
  let harness = Harness.deploy ~quirks ~span_sampling:0 bundle in
  let coverage = Coverage.create () in
  Coverage.attach_device coverage harness.Harness.device;
  let metrics = Device.metrics harness.Harness.device in
  Registry.gauge metrics ~help:"distinct coverage-map edges hit" "fuzz/edges" (fun () ->
      float_of_int (Coverage.edges coverage));
  {
    harness;
    quirks;
    bundle;
    coverage;
    executions = 0;
    in_batch = false;
    c_execs =
      Registry.counter metrics ~help:"differential-oracle executions" "fuzz/executions";
    c_divergences =
      Registry.counter metrics ~help:"executions whose device behaviour diverged from the specification"
        "fuzz/divergences";
  }

let coverage t = t.coverage
let executions t = t.executions
let quirks t = t.quirks
let bundle t = t.bundle
let metrics t = Device.metrics t.harness.Harness.device

let kind_name = function Verdict -> "verdict" | Port -> "port" | Payload -> "payload"

let describe_spec = function
  | Interp.Forwarded (p, _) -> "forward:port=" ^ string_of_int p
  | Interp.Dropped r -> "drop:" ^ r

let describe_dev = function
  | Dev_forwarded (p, _) -> "forward:port=" ^ string_of_int p
  | Dev_dropped -> "drop"

let diverge kind spec dev =
  let d_spec = describe_spec spec and d_dev = describe_dev dev in
  Some
    { d_kind = kind; d_spec; d_dev;
      d_fingerprint = kind_name kind ^ "|spec=" ^ d_spec ^ "|dev=" ^ d_dev }

(* spec side: the reference interpreter over the same installed entries,
   pure single-packet semantics (fresh registers) *)
let spec_side t input =
  t.executions <- t.executions + 1;
  Counter.incr t.c_execs;
  let obs =
    Interp.process t.bundle.Programs.program
      (Device.runtime t.harness.Harness.device)
      ~ingress_port:Harness.generator_port input
  in
  Coverage.record_spec t.coverage obs;
  obs

let judge t (obs : Interp.observation) dev =
  let divergence =
    match (obs.Interp.result, dev) with
    | Interp.Forwarded (p, out), Dev_forwarded (q, dev_bits) ->
        if p <> q then diverge Port obs.Interp.result dev
        else if not (Bitstring.equal out dev_bits) then
          diverge Payload obs.Interp.result dev
        else None
    | Interp.Dropped _, Dev_forwarded _ | Interp.Forwarded _, Dev_dropped ->
        diverge Verdict obs.Interp.result dev
    | Interp.Dropped _, Dev_dropped -> None  (* drop reasons are not observable *)
  in
  if divergence <> None then Counter.incr t.c_divergences;
  { x_spec = obs.Interp.result; x_dev = dev; x_divergence = divergence }

(* One differential execution: the spec side, then the generator's raw
   shot from zeroed device registers — so every execution is independent
   and minimization replays faithfully — judged from the disposition the
   device hands back. Runs inside a batch window, which owns the quiesce. *)
let shot t input =
  let obs = spec_side t input in
  let device = t.harness.Harness.device in
  Regstate.reset (Device.registers device);
  let dev =
    match Generator.send_raw (Agent.generator t.harness.Harness.agent) input with
    | Device.Emitted o -> Dev_forwarded (o.Device.o_port, o.Device.o_bits)
    | Device.Dropped_pipeline _ | Device.Dropped_queue | Device.Lost_in_stage _ ->
        Dev_dropped
  in
  judge t obs dev

let with_batch t f =
  if t.in_batch then f ()
  else begin
    t.in_batch <- true;
    Fun.protect
      ~finally:(fun () ->
        t.in_batch <- false;
        Device.quiesce t.harness.Harness.device)
      f
  end

let exec_batch t inputs = with_batch t (fun () -> Array.map (shot t) inputs)

(* inside a window, the bare shot: the campaign's hot loop pays no
   per-execution window *)
let execute t input = if t.in_batch then shot t input else (exec_batch t [| input |]).(0)

(* Attribute a reproducer to quirks by delta-debugging the quirk set: a
   quirk is culpable iff removing just it makes the divergence vanish.
   Each probe deploys a fresh harness, so the main campaign's coverage and
   counters are untouched. *)
let attribute t input =
  List.filter
    (fun q ->
      let reduced = List.filter (fun q' -> q' <> q) t.quirks in
      let probe = create ~quirks:reduced t.bundle in
      (execute probe input).x_divergence = None)
    t.quirks
