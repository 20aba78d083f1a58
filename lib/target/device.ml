module Ast = P4ir.Ast
module Exec = P4ir.Exec
module Runtime = P4ir.Runtime
module Regstate = P4ir.Regstate
module Stdmeta = P4ir.Stdmeta
module Compilecore = P4ir.Compilecore
module Counter = Stats.Counter
module Histogram = Stats.Histogram
module Bitstring = Bitutil.Bitstring
module Span = Telemetry.Span
module Registry = Telemetry.Registry

type source = External of int | Generator

type output = {
  o_port : int;
  o_bits : Bitstring.t;
  o_source : source;
  o_in_time_ns : float;
  o_out_time_ns : float;
  o_wire_time_ns : float;
}

type disposition =
  | Emitted of output
  | Dropped_pipeline of string
  | Dropped_queue
  | Lost_in_stage of string

type status = {
  st_time_ns : float;
  st_packets_in : int64;
  st_packets_out : int64;
  st_queue_drops : int64;
  st_pipeline_drops : int64;
  st_queue_depth : int;
  st_stage_seen : (string * int64) list;
}

(* Coverage taps: external observers of the behavioural events a packet
   produces inside the pipeline (parser outcome, table apply, final
   disposition). Unset by default; the hot path pays one word-load and a
   branch per event when no taps are installed. *)
type taps = {
  tp_parse : P4ir.Parse.outcome -> unit;
  tp_table : table:string -> hit:bool -> action:string -> unit;
  tp_disposition : disposition -> unit;
}

(* The internal generator sits after the input interfaces; its packets carry
   a non-physical ingress port (one below the 511 drop port). *)
let generator_port = 510

(* Spans for 1-in-64 packets by default; metrics are always on. *)
let default_span_sampling = 64

exception Lost of string

(* Per-stage runtime state. Counters and span names are resolved/interned
   once at device creation so the hot path never formats or hashes a
   string. *)
type stage_state = {
  ss_name : string;
  ss_seen : Counter.t;
  ss_hit : Counter.t option;
  ss_miss : Counter.t option;
  ss_fault_applied : Counter.t;
  ss_enter_ns : float;  (* latency from pipeline entry to this stage, for span stamps *)
  ss_latency_ns : float;
  ss_name_id : int;  (* interned span name, e.g. "stage[2]:ma:ipv4_lpm" *)
  ss_span_kind : Span.kind;
  mutable ss_note_of : string;  (* the action name [ss_note] interns, by identity *)
  mutable ss_note : int;  (* [Span.no_note] until the first sampled apply *)
  mutable ss_fault : Fault.t option;
  mutable ss_fault_hits : int;
}

(* The pipeline runs on its program compiled to closures ([core], shared
   by every device made from the pipeline via its lazy field) through this
   device's own instance [sg]. [stage_of_table] maps the core's dense
   table ids to the match-action stages so the per-apply callback does no
   hashing. *)
type t = {
  pipeline : Pipeline.t;
  config : Config.t;
  core : Compilecore.t;
  sg : Compilecore.inst;
  runtime : Runtime.t;
  regs : Regstate.t;
  counters : Counter.Set.t;
  metrics : Registry.t;
  spanstore : Span.t;
  cycle_ns : float;
  latency_ns : float;
  stages : stage_state array;
  ss_parser : stage_state;
  ss_egress : stage_state;
  ss_deparser : stage_state;
  by_stage : (string, stage_state) Hashtbl.t;
  stage_of_table : stage_state option array;
  mutable taps : taps option;
  mutable faults_active : bool;
  mutable cur_id : int;
  mutable cur_entry : float;
  mutable cur_sampled : bool;  (* is the in-flight packet fully spanned? *)
  mutable cur_root : int;  (* reserved span id of the in-flight packet's root *)
  mutable cur_end : float;  (* latest virtual time the in-flight packet reached *)
  mutable now : float;
  mutable pipe_free : float;  (* when the bus finishes streaming the last packet in *)
  rx_q : Ringq.t;
  tx_q : Ringq.t array;
  tx_free : float array;
  broken : bool array;
  mutable outs_rev : output list;
  mutable check_tap : output -> unit;
  mutable next_id : int;
  c_rx_external : Counter.t;
  c_rx_generator : Counter.t;
  c_drop_queue : Counter.t;
  c_drop_pipeline : Counter.t;
  c_drop_fault : Counter.t;
  c_emitted : Counter.t;
  c_assert_failed : Counter.t;
  c_txq_drop : Counter.t array;
  h_pipe_latency : Histogram.t;
  h_rxq_wait : Histogram.t;
  h_tx_ser : Histogram.t array;
  n_packet : int;
  n_rx_queue : int;
  n_tx : int array;
  note_accept : int;
  note_reject : int;
  note_enter : int;
  note_emit : int;
  note_tail_drop : int;
}

(* A child span of the in-flight packet's root. *)
let span_child t ~kind ~name ~t0 ~t1 ~bytes ~flags ~note =
  ignore
    (Span.add t.spanstore ~parent:t.cur_root ~packet:t.cur_id ~kind ~name ~t0 ~t1 ~bytes ~flags
       ~note)

let lose ss =
  Counter.incr ss.ss_fault_applied;
  raise (Lost ss.ss_name)

(* The stage's injected fault: drop-class faults unwind the walk with
   [Lost]; a corrupt fault XORs its mask into the field. *)
let apply_fault t ss =
  match ss.ss_fault with
  | None | Some Fault.Stuck_miss -> ()
  | Some Fault.Drop_at_stage -> lose ss
  | Some (Fault.Intermittent_drop n) ->
      ss.ss_fault_hits <- ss.ss_fault_hits + 1;
      if n > 0 && ss.ss_fault_hits mod n = 0 then lose ss
  | Some (Fault.Corrupt_field (h, f, mask)) ->
      Counter.incr ss.ss_fault_applied;
      Compilecore.corrupt_field t.sg h f mask

(* What every stage does with a packet — the parser, each match-action
   stage, egress and the deparser alike: count it in, span it when it is
   sampled, then apply the stage's fault. *)
let pass_stage t ss ~flags ~note =
  Counter.incr ss.ss_seen;
  if t.cur_sampled then
    ignore
      (Span.add_offset t.spanstore ~parent:t.cur_root ~packet:t.cur_id ~kind:ss.ss_span_kind
         ~name:ss.ss_name_id ~origin:t.cur_entry ~offset:ss.ss_enter_ns
         ~duration:ss.ss_latency_ns ~bytes:0 ~flags ~note);
  if t.faults_active then apply_fault t ss

(* A sampled apply's note: the action's interned name, or "miss". The
   core hands over the same string for the same action every time, so the
   stage keeps the last one it interned and hashes only when it changes. *)
let action_note t ss hit action =
  let name = if hit then action else "miss" in
  if ss.ss_note = Span.no_note || name != ss.ss_note_of then begin
    ss.ss_note_of <- name;
    ss.ss_note <- Span.intern t.spanstore name
  end;
  ss.ss_note

(* The compiled core's callback on every table apply, before the action
   body runs. *)
let table_applied t id hit action =
  (match t.taps with
  | Some tp -> tp.tp_table ~table:(Compilecore.table_name t.core id) ~hit ~action
  | None -> ());
  match t.stage_of_table.(id) with
  | None -> ()
  | Some ss ->
      (match if hit then ss.ss_hit else ss.ss_miss with
      | Some c -> Counter.incr c
      | None -> ());
      pass_stage t ss ~flags:0
        ~note:(if t.cur_sampled then action_note t ss hit action else Span.no_note)

let stuck_miss t by_table tbl =
  t.faults_active
  && match Hashtbl.find_opt by_table tbl with
     | Some { ss_fault = Some Fault.Stuck_miss; _ } -> true
     | _ -> false

let create ?update_clock (pipeline : Pipeline.t) =
  let config = pipeline.Pipeline.config in
  let program = pipeline.Pipeline.program in
  let cycle_ns = Config.cycle_ns config in
  let counters = Counter.Set.create () in
  let metrics = Registry.create ~counters () in
  let spanstore = Span.create ~sampling:default_span_sampling () in
  let runtime = Runtime.create () in
  let regs = Regstate.create program in
  let offset = ref 0 in
  let stages =
    List.mapi
      (fun i (s : Pipeline.stage) ->
        let enter_ns = float_of_int !offset *. cycle_ns in
        offset := !offset + s.Pipeline.s_latency_cycles;
        let counter suffix help =
          Registry.counter metrics ~help ("stage/" ^ s.Pipeline.s_name ^ suffix)
        in
        let hit, miss =
          match s.Pipeline.s_kind with
          | Pipeline.Match_action _ ->
              ( Some (counter "/hit" "table lookups that matched an entry"),
                Some (counter "/miss" "table lookups that fell through") )
          | Pipeline.Parser_engine | Pipeline.Egress_engine | Pipeline.Deparser_engine ->
              (None, None)
        in
        let span_name, span_kind =
          match s.Pipeline.s_kind with
          | Pipeline.Parser_engine -> ("parse", Span.Parse)
          | Pipeline.Deparser_engine -> ("deparse", Span.Deparse)
          | Pipeline.Match_action _ | Pipeline.Egress_engine ->
              (Printf.sprintf "stage[%d]:%s" i s.Pipeline.s_name, Span.Stage)
        in
        {
          ss_name = s.Pipeline.s_name;
          ss_seen = counter "/seen" "packets that entered this stage";
          ss_hit = hit;
          ss_miss = miss;
          ss_fault_applied = counter "/fault_hits" "injected-fault applications at this stage";
          ss_enter_ns = enter_ns;
          ss_latency_ns = float_of_int s.Pipeline.s_latency_cycles *. cycle_ns;
          ss_name_id = Span.intern spanstore span_name;
          ss_span_kind = span_kind;
          ss_note_of = "";
          ss_note = Span.no_note;
          ss_fault = None;
          ss_fault_hits = 0;
        })
      pipeline.Pipeline.stages
    |> Array.of_list
  in
  let by_stage = Hashtbl.create 8 in
  Array.iter (fun ss -> Hashtbl.replace by_stage ss.ss_name ss) stages;
  let by_table = Hashtbl.create 8 in
  List.iteri
    (fun i (s : Pipeline.stage) ->
      match s.Pipeline.s_kind with
      | Pipeline.Match_action tbl -> Hashtbl.replace by_table tbl stages.(i)
      | _ -> ())
    pipeline.Pipeline.stages;
  let find_stage name =
    match Hashtbl.find_opt by_stage name with
    | Some ss -> ss
    | None -> invalid_arg ("Device.create: pipeline has no " ^ name ^ " stage")
  in
  Array.iter
    (fun ss ->
      let lat = ss.ss_latency_ns in
      Registry.gauge metrics
        ~help:"fixed stage latency in the analytic timing model"
        ("stage/" ^ ss.ss_name ^ "/latency_ns")
        (fun () -> lat))
    stages;
  (* continuous-profiling attribution: each stage's share of the total
     pipeline cycles spent so far (seen x latency, normalized over all
     stages). Computed lazily at snapshot time so the hot path pays
     nothing; reads 0 before any traffic. *)
  let cycle_total () =
    Array.fold_left
      (fun acc ss ->
        acc +. (Int64.to_float (Counter.get ss.ss_seen) *. ss.ss_latency_ns))
      0. stages
  in
  Array.iter
    (fun ss ->
      Registry.gauge metrics
        ~help:"this stage's share of all pipeline cycles spent so far"
        ("stage/" ^ ss.ss_name ^ "/cycle_share")
        (fun () ->
          let total = cycle_total () in
          if total <= 0. then 0.
          else Int64.to_float (Counter.get ss.ss_seen) *. ss.ss_latency_ns /. total))
    stages;
  (* table-scale telemetry: live entry counts plus control-plane update
     latency per table. Update durations come from [update_clock]; without
     one they read 0, keeping deterministic runs deterministic while still
     counting every update. *)
  let table_update_h = Hashtbl.create 8 in
  List.iter
    (fun (tbl : Ast.table) ->
      let name = tbl.Ast.t_name in
      if not (Hashtbl.mem table_update_h name) then begin
        Registry.gauge metrics ~help:"entries currently installed in this table"
          ("table/" ^ name ^ "/entries")
          (fun () -> float_of_int (Runtime.entry_count runtime name));
        Hashtbl.replace table_update_h name
          (Registry.histogram metrics
             ~help:"control-plane update latency for this table (add/remove/clear)"
             ("table/" ^ name ^ "/update_ns"))
      end)
    program.Ast.p_tables;
  Runtime.set_update_hook runtime ?clock:update_clock (fun name ns ->
      match Hashtbl.find_opt table_update_h name with
      | Some h -> Histogram.add h (float_of_int ns)
      | None -> ());
  let core = Lazy.force pipeline.Pipeline.staged in
  (* program counters are resolved on first increment, so "prog/<name>"
     only appears in the metrics once the program bumps it *)
  let prog_counters = Array.make (max 1 (Compilecore.n_counters core)) None in
  let on_count id =
    match prog_counters.(id) with
    | Some c -> Counter.incr c
    | None ->
        let c = Counter.Set.find counters ("prog/" ^ Compilecore.counter_name core id) in
        prog_counters.(id) <- Some c;
        Counter.incr c
  in
  let c_assert_failed =
    Registry.counter metrics ~help:"program assertions that evaluated false" "assert/failed"
  in
  let on_assert ok _id = if not ok then Counter.incr c_assert_failed in
  (* the core's table callbacks need the device, which needs the core's
     instance: tie the knot through [self] *)
  let self = ref None in
  let on_table id hit action =
    match !self with Some t -> table_applied t id hit action | None -> ()
  in
  let base_always_miss = pipeline.Pipeline.exec_hooks.Exec.table_always_miss in
  let table_always_miss tbl =
    base_always_miss tbl
    || match !self with Some t -> stuck_miss t by_table tbl | None -> false
  in
  let sg =
    Compilecore.instantiate ~on_count ~on_assert ~on_table ~table_always_miss ~regs core
      ~runtime
  in
  let rx_q = Ringq.create config.Config.rx_queue_packets in
  let tx_q = Array.init config.Config.ports (fun _ -> Ringq.create config.Config.tx_queue_packets) in
  Registry.gauge metrics ~help:"packets buffered in the input queue" "rxq/depth" (fun () ->
      float_of_int (Ringq.length rx_q));
  Array.iteri
    (fun p q ->
      Registry.gauge metrics
        ~help:"packets buffered in this port's TX queue"
        (Printf.sprintf "txq%d/depth" p)
        (fun () -> float_of_int (Ringq.length q)))
    tx_q;
  let t =
    {
      pipeline;
      config;
      core;
      sg;
      runtime;
      regs;
      counters;
      metrics;
      spanstore;
      cycle_ns;
      latency_ns = float_of_int (Pipeline.total_latency_cycles pipeline) *. cycle_ns;
      stages;
      ss_parser = find_stage "parser";
      ss_egress = find_stage "egress";
      ss_deparser = find_stage "deparser";
      by_stage;
      stage_of_table =
        Array.init (Compilecore.n_tables core) (fun i ->
            Hashtbl.find_opt by_table (Compilecore.table_name core i));
      taps = None;
      faults_active = false;
      cur_id = 0;
      cur_entry = 0.0;
      cur_sampled = false;
      cur_root = 0;
      cur_end = 0.0;
      now = 0.0;
      pipe_free = 0.0;
      rx_q;
      tx_q;
      tx_free = Array.make config.Config.ports 0.0;
      broken = Array.make config.Config.ports false;
      outs_rev = [];
      check_tap = ignore;
      next_id = 0;
      c_rx_external =
        Registry.counter metrics ~help:"packets arrived on physical ports" "rx/external";
      c_rx_generator =
        Registry.counter metrics ~help:"packets injected by the internal generator" "rx/generator";
      c_drop_queue =
        Registry.counter metrics ~help:"tail drops at the full input queue" "drop/queue";
      c_drop_pipeline =
        Registry.counter metrics ~help:"packets dropped by program semantics" "drop/pipeline";
      c_drop_fault =
        Registry.counter metrics ~help:"packets swallowed by an injected fault" "drop/fault";
      c_emitted =
        Registry.counter metrics ~help:"emissions observed at the check point" "tx/emitted";
      c_assert_failed;
      c_txq_drop =
        Array.init config.Config.ports (fun p ->
            Registry.counter metrics ~help:"tail drops at this port's full TX queue"
              (Printf.sprintf "drop/txq%d" p));
      h_pipe_latency =
        Registry.histogram metrics
          ~help:"virtual ns from device arrival to pipeline exit (check point)"
          "pipeline/latency_ns";
      h_rxq_wait =
        Registry.histogram metrics
          ~help:"virtual ns a packet waited before the pipeline bus accepted it"
          "rxq/wait_ns";
      h_tx_ser =
        Array.init config.Config.ports (fun p ->
            Registry.histogram metrics
              ~help:"virtual ns spent serializing onto this port's wire"
              (Printf.sprintf "tx/port%d/serialization_ns" p));
      n_packet = Span.intern spanstore "packet";
      n_rx_queue = Span.intern spanstore "rx_queue";
      n_tx =
        Array.init config.Config.ports (fun p -> Span.intern spanstore (Printf.sprintf "tx[%d]" p));
      note_accept = Span.intern spanstore "accept";
      note_reject = Span.intern spanstore "reject";
      note_enter = Span.intern spanstore "enter";
      note_emit = Span.intern spanstore "emit";
      note_tail_drop = Span.intern spanstore "tail-drop";
    }
  in
  self := Some t;
  t

let pipeline t = t.pipeline
let config t = t.config
let runtime t = t.runtime
let registers t = t.regs
let counters t = t.counters
let metrics t = t.metrics
let spans t = t.spanstore
let now_ns t = t.now

let set_span_sampling t n = Span.set_sampling t.spanstore n

let set_check_tap t f = t.check_tap <- f

let set_taps t tp =
  t.taps <- tp;
  (* the parse tap consumes [states_visited]; only track it when someone
     is listening *)
  Compilecore.set_track_states t.sg (Option.is_some tp)

let set_port_broken t port broken =
  if port < 0 || port >= t.config.Config.ports then
    invalid_arg (Printf.sprintf "Device.set_port_broken: no port %d" port);
  t.broken.(port) <- broken

let inject_fault t ~stage fault =
  match Hashtbl.find_opt t.by_stage stage with
  | None -> invalid_arg ("Device.inject_fault: unknown stage " ^ stage)
  | Some ss ->
      ss.ss_fault <- Some fault;
      ss.ss_fault_hits <- 0;
      t.faults_active <- true

let clear_faults t =
  Array.iter
    (fun ss ->
      ss.ss_fault <- None;
      ss.ss_fault_hits <- 0)
    t.stages;
  t.faults_active <- false

let faults t =
  Array.to_list t.stages
  |> List.filter_map (fun ss ->
         match ss.ss_fault with Some f -> Some (ss.ss_name, f) | None -> None)

(* Emission: the check tap observes everything that left the pipeline; only
   packets bound for a healthy physical port with TX buffer room go on to
   the wire (and into [outputs]). *)
let emit t ~source ~arrival ~out_time ~port bits =
  Counter.incr t.c_emitted;
  Histogram.add t.h_pipe_latency (out_time -. arrival);
  let out =
    {
      o_port = port;
      o_bits = bits;
      o_source = source;
      o_in_time_ns = arrival;
      o_out_time_ns = out_time;
      o_wire_time_ns = out_time;
    }
  in
  t.check_tap out;
  if port >= 0 && port < t.config.Config.ports && not t.broken.(port) then begin
    let q = t.tx_q.(port) in
    ignore (Ringq.drop_leq q out_time);
    if Ringq.is_full q then begin
      Counter.incr t.c_txq_drop.(port);
      if t.cur_sampled then
        span_child t ~kind:Span.Tx ~name:t.n_tx.(port) ~t0:out_time ~t1:out_time ~bytes:0
          ~flags:Span.flag_drop ~note:t.note_tail_drop
    end
    else begin
      let bytes = (Bitstring.length bits + 7) / 8 in
      let ser = float_of_int bytes /. (Config.port_rate_gbps t.config /. 8.0) in
      let start = if t.tx_free.(port) > out_time then t.tx_free.(port) else out_time in
      let wire = start +. ser in
      t.tx_free.(port) <- wire;
      ignore (Ringq.push q wire);
      Histogram.add t.h_tx_ser.(port) ser;
      t.cur_end <- wire;
      if t.cur_sampled then
        span_child t ~kind:Span.Tx ~name:t.n_tx.(port) ~t0:out_time ~t1:wire ~bytes ~flags:0
          ~note:Span.no_note;
      t.outs_rev <- { out with o_wire_time_ns = wire } :: t.outs_rev
    end
  end;
  Emitted out

let drop_pipeline t reason =
  Counter.incr t.c_drop_pipeline;
  Dropped_pipeline reason

(* The pipeline walk: parser, ingress (whose table applies reach
   [table_applied]), egress, deparser. *)
let run_pipeline t ~source ~arrival ~entry_done bits =
  let si = t.sg in
  Compilecore.reset si;
  Compilecore.set_ingress_port si
    (match source with External p -> p | Generator -> generator_port);
  t.cur_entry <- entry_done;
  try
    Compilecore.run_parser si bits;
    let accepted = Compilecore.parse_accepted si in
    (match t.taps with Some tp -> tp.tp_parse (Compilecore.parse_outcome si) | None -> ());
    pass_stage t t.ss_parser
      ~flags:(if accepted then 0 else Span.flag_drop)
      ~note:(if accepted then t.note_accept else t.note_reject);
    if not accepted then
      drop_pipeline t ("parser:" ^ Stdmeta.error_name (Compilecore.parse_error si))
    else begin
      Compilecore.run_ingress si;
      if Compilecore.dropped si then drop_pipeline t "ingress"
      else begin
        pass_stage t t.ss_egress ~flags:0 ~note:t.note_enter;
        Compilecore.run_egress si;
        if Compilecore.dropped si then drop_pipeline t "egress"
        else begin
          pass_stage t t.ss_deparser ~flags:0 ~note:t.note_emit;
          let out_bits = Compilecore.deparse si in
          let port = Compilecore.egress_port si in
          emit t ~source ~arrival ~out_time:(entry_done +. t.latency_ns) ~port out_bits
        end
      end
    end
  with Lost stage ->
    Counter.incr t.c_drop_fault;
    Lost_in_stage stage

let inject t ~source ?at_ns bits =
  let arrival =
    match at_ns with
    | Some a -> if a > t.now then a else t.now
    (* no timestamp: arrive back-to-back, the moment the pipeline can take it *)
    | None -> if t.pipe_free > t.now then t.pipe_free else t.now
  in
  t.now <- arrival;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.cur_id <- id;
  let sampled = Span.sample t.spanstore in
  t.cur_sampled <- sampled;
  if sampled then t.cur_root <- Span.next_id t.spanstore;
  let bytes = (Bitstring.length bits + 7) / 8 in
  (match source with
  | External _ -> Counter.incr t.c_rx_external
  | Generator -> Counter.incr t.c_rx_generator);
  ignore (Ringq.drop_leq t.rx_q arrival);
  if Ringq.is_full t.rx_q then begin
    Counter.incr t.c_drop_queue;
    if sampled then begin
      span_child t ~kind:Span.Rx_queue ~name:t.n_rx_queue ~t0:arrival ~t1:arrival ~bytes:0
        ~flags:Span.flag_drop ~note:t.note_tail_drop;
      Span.record t.spanstore ~id:t.cur_root ~parent:Span.no_parent ~packet:id
        ~kind:Span.Packet ~name:t.n_packet ~t0:arrival ~t1:arrival ~bytes
        ~flags:Span.flag_drop ~note:t.note_tail_drop
    end;
    (match t.taps with Some tp -> tp.tp_disposition Dropped_queue | None -> ());
    (id, Dropped_queue)
  end
  else begin
    let bus = t.config.Config.bus_bytes_per_cycle in
    let ser_cycles = (bytes + bus - 1) / bus in
    let start = if t.pipe_free > arrival then t.pipe_free else arrival in
    let entry_done = start +. (float_of_int ser_cycles *. t.cycle_ns) in
    t.pipe_free <- entry_done;
    ignore (Ringq.push t.rx_q entry_done);
    Histogram.add t.h_rxq_wait (start -. arrival);
    if sampled then
      span_child t ~kind:Span.Rx_queue ~name:t.n_rx_queue ~t0:arrival ~t1:entry_done ~bytes:0
        ~flags:0 ~note:Span.no_note;
    (* pipeline drops end the packet at pipeline exit; [emit] pushes this
       out to the wire timestamp when the packet reaches one *)
    t.cur_end <- entry_done +. t.latency_ns;
    let disposition = run_pipeline t ~source ~arrival ~entry_done bits in
    if sampled then begin
      let flags, note =
        match disposition with
        | Emitted _ -> (0, Span.no_note)
        | Dropped_pipeline reason -> (Span.flag_drop, Span.intern t.spanstore reason)
        | Lost_in_stage stage ->
            (Span.flag_drop lor Span.flag_fault, Span.intern t.spanstore stage)
        | Dropped_queue -> assert false
      in
      Span.record t.spanstore ~id:t.cur_root ~parent:Span.no_parent ~packet:id
        ~kind:Span.Packet ~name:t.n_packet ~t0:arrival ~t1:t.cur_end ~bytes ~flags ~note
    end;
    (match t.taps with Some tp -> tp.tp_disposition disposition | None -> ());
    (id, disposition)
  end

let advance_to_ns t ns =
  if ns > t.now then t.now <- ns;
  ignore (Ringq.drop_leq t.rx_q t.now);
  Array.iter (fun q -> ignore (Ringq.drop_leq q t.now)) t.tx_q

let quiesce t =
  let horizon = Array.fold_left (fun acc f -> if f > acc then f else acc) t.pipe_free t.tx_free in
  advance_to_ns t horizon

let inject_batch t ~source ?(reset_registers = false) pkts =
  let n = Array.length pkts in
  let out = Array.make n Dropped_queue in
  for i = 0 to n - 1 do
    if reset_registers then Regstate.reset t.regs;
    let _, d = inject t ~source pkts.(i) in
    out.(i) <- d
  done;
  quiesce t;
  out

let outputs t =
  let outs = List.rev t.outs_rev in
  t.outs_rev <- [];
  outs

let status t =
  ignore (Ringq.drop_leq t.rx_q t.now);
  Array.iter (fun q -> ignore (Ringq.drop_leq q t.now)) t.tx_q;
  let depth = Array.fold_left (fun acc q -> acc + Ringq.length q) (Ringq.length t.rx_q) t.tx_q in
  let tx_drops =
    Array.fold_left (fun acc c -> Int64.add acc (Counter.get c)) 0L t.c_txq_drop
  in
  {
    st_time_ns = t.now;
    st_packets_in = Int64.add (Counter.get t.c_rx_external) (Counter.get t.c_rx_generator);
    st_packets_out = Counter.get t.c_emitted;
    st_queue_drops = Int64.add (Counter.get t.c_drop_queue) tx_drops;
    st_pipeline_drops = Counter.get t.c_drop_pipeline;
    st_queue_depth = depth;
    st_stage_seen =
      Array.to_list (Array.map (fun ss -> (ss.ss_name, Counter.get ss.ss_seen)) t.stages);
  }
