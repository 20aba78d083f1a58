module Interp = P4ir.Interp
module Device = Target.Device

type verdict =
  | Healthy
  | Dropped_by_program of string
  | Lost_in of string
  | Lost_after_check_point of int

type evidence = {
  e_expected_stages : string list;
  e_deltas : (string * int64) list;
  e_emitted : int;
  e_external : int;
  e_span_trail : (string * int) list;
}

(* Map span names back to pipeline stage names: "parse" -> "parser",
   "deparse" -> "deparser", "stage[i]:<name>" -> "<name>". *)
let stage_of_span_name name =
  match name with
  | "parse" -> Some "parser"
  | "deparse" -> Some "deparser"
  | _ ->
      if String.length name > 6 && String.sub name 0 6 = "stage[" then
        match String.index_opt name ':' with
        | Some i -> Some (String.sub name (i + 1) (String.length name - i - 1))
        | None -> None
      else None

let verdict_to_string = function
  | Healthy -> "healthy"
  | Dropped_by_program r -> Printf.sprintf "dropped by the program (%s)" r
  | Lost_in s -> Printf.sprintf "fault localized in stage '%s'" s
  | Lost_after_check_point p ->
      Printf.sprintf "lost after the check point: output interface %d" p

let ( let* ) r f = match r with Ok v -> f v | Error e -> invalid_arg ("Localize: " ^ e)

let locate ?(count = 16) (h : Harness.t) ~probe =
  (* what should happen, per the specification *)
  let spec =
    Interp.process h.Harness.bundle.P4ir.Programs.program
      (Device.runtime h.Harness.device) ~ingress_port:Harness.generator_port probe
  in
  match spec.Interp.result with
  | Interp.Dropped reason ->
      ( Dropped_by_program reason,
        {
          e_expected_stages = [];
          e_deltas = [];
          e_emitted = 0;
          e_external = 0;
          e_span_trail = [];
        } )
  | Interp.Forwarded (spec_port, _) ->
      let expected_stages =
        ("parser" :: List.map (fun (t, _, _) -> "ma:" ^ t) spec.Interp.tables)
        @ [ "egress"; "deparser" ]
      in
      let ctl = h.Harness.controller in
      let read_counters () =
        let* cs = Controller.read_stage_counters ctl in
        cs
      in
      let seen_of counters stage =
        match List.assoc_opt (Printf.sprintf "stage/%s/seen" stage) counters with
        | Some v -> v
        | None -> 0L
      in
      let wire () = (Device.status h.Harness.device).Device.st_packets_wire in
      let wire_before = wire () in
      let before = read_counters () in
      (* span every probe in the burst: independent, per-stage-timed
         corroboration of the counter-delta evidence *)
      let spanstore = Device.spans h.Harness.device in
      let prev_sampling = Telemetry.Span.sampling spanstore in
      Device.set_span_sampling h.Harness.device 1;
      let watermark = Telemetry.Span.issued spanstore in
      let* () = Controller.clear_test_state ctl in
      let* () =
        Controller.configure_generator ctl [ Controller.stream ~count probe ]
      in
      let* () = Controller.start_generator ctl in
      let trail_tbl = Hashtbl.create 8 in
      Telemetry.Span.iter spanstore (fun sp ->
          if sp.Telemetry.Span.sp_id >= watermark then
            match stage_of_span_name sp.Telemetry.Span.sp_name with
            | Some stage ->
                Hashtbl.replace trail_tbl stage
                  (1 + Option.value ~default:0 (Hashtbl.find_opt trail_tbl stage))
            | None -> ());
      Device.set_span_sampling h.Harness.device prev_sampling;
      let after = read_counters () in
      let* summary = Controller.read_checker ctl in
      let emitted = summary.Wire.cs_total_seen in
      let external_outputs = Int64.to_int (Int64.sub (wire ()) wire_before) in
      let deltas =
        List.map
          (fun s -> (s, Int64.sub (seen_of after s) (seen_of before s)))
          expected_stages
      in
      let evidence =
        {
          e_expected_stages = expected_stages;
          e_deltas = deltas;
          e_emitted = emitted;
          e_external = external_outputs;
          e_span_trail =
            List.map
              (fun s -> (s, Option.value ~default:0 (Hashtbl.find_opt trail_tbl s)))
              expected_stages;
        }
      in
      let countL = Int64.of_int count in
      (* last stage that saw the full burst *)
      let rec last_full prev = function
        | [] -> prev
        | (s, d) :: rest -> if d >= countL then last_full (Some s) rest else prev
      in
      let full_through = last_full None deltas in
      let all_full = List.for_all (fun (_, d) -> d >= countL) deltas in
      if all_full && emitted >= count then
        if external_outputs >= count then (Healthy, evidence)
        else (Lost_after_check_point spec_port, evidence)
      else if all_full (* stages fine but check point starved: deparser ate them *)
      then (Lost_in "deparser", evidence)
      else
        let stage = match full_through with Some s -> s | None -> "parser" in
        (Lost_in stage, evidence)
