(* Snapshot streamer: periodically (in virtual time) snapshot a metrics
   Registry and turn the diff against the previous snapshot into a
   [window] — per-window counter deltas, current gauge values, and
   windowed histogram datasets (via Histogram.delta against a retained
   copy). Each window is also rendered as one delta-encoded JSONL line.

   The hot-path entry point is [tick]: one float compare when the
   sampling boundary has not been crossed, so a device inject loop can
   call it per packet (microbenched as B15 against the bare B1 inject). *)

module Registry = Telemetry.Registry
module Histogram = Stats.Histogram

type window = {
  w_seq : int;
  w_t0_ns : float;
  w_t1_ns : float;
  w_counters : (string * int64) list;
  w_gauges : (string * float) list;
  w_hists : (string * Histogram.t) list;
}

type t = {
  registry : Registry.t;
  interval_ns : float;
  sink : string -> unit;
  buf : Buffer.t;
  line : Buffer.t;  (* reused per window: a fresh one regrows past 2 KB into the major heap *)
  prev_counters : (string, int64) Hashtbl.t;
  prev_gauges : (string, float) Hashtbl.t;
  prev_hists : (string, Histogram.t) Hashtbl.t;
  mutable next_ns : float;
  mutable seq : int;
}

let create ?(interval_ns = 100_000.) ?sink registry ~start_ns =
  if interval_ns <= 0. then invalid_arg "Sampler.create: interval_ns must be positive";
  let buf = Buffer.create 4096 in
  let sink = match sink with Some f -> f | None -> Buffer.add_string buf in
  {
    registry;
    interval_ns;
    sink;
    buf;
    line = Buffer.create 4096;
    prev_counters = Hashtbl.create 64;
    prev_gauges = Hashtbl.create 32;
    prev_hists = Hashtbl.create 16;
    next_ns = start_ns +. interval_ns;
    seq = 0;
  }

let counter_delta w name =
  match List.assoc_opt name w.w_counters with Some d -> d | None -> 0L

let gauge_value w name = List.assoc_opt name w.w_gauges

let hist_window w name = List.assoc_opt name w.w_hists

(* One JSONL line per window. Delta encoding: counters appear only when
   they moved, gauges only when they changed (all of them on the first
   window), histograms only when the window saw samples. *)
let line_of_window line ~gauges_changed w =
  let num f = Json.Num f in
  let counters =
    List.map (fun (n, d) -> (n, num (Int64.to_float d))) w.w_counters
  in
  let gauges = List.map (fun (n, v) -> (n, num v)) gauges_changed in
  let hists =
    List.map
      (fun (n, h) ->
        ( n,
          Json.Obj
            [
              ("n", num (float_of_int (Histogram.count h)));
              ("sum", num (Histogram.total h));
              ("min", num (Histogram.min_value h));
              ("max", num (Histogram.max_value h));
              ("p50", num (Histogram.percentile h 50.));
              ("p99", num (Histogram.percentile h 99.));
            ] ))
      w.w_hists
  in
  Buffer.clear line;
  Json.add line
    (Json.Obj
       [
         ("seq", num (float_of_int w.w_seq));
         ("t0_ns", num w.w_t0_ns);
         ("t1_ns", num w.w_t1_ns);
         ("counters", Json.Obj counters);
         ("gauges", Json.Obj gauges);
         ("hists", Json.Obj hists);
       ]);
  Buffer.add_char line '\n';
  Buffer.contents line

let sample t ~now_ns =
  let t0 = t.next_ns -. t.interval_ns in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  let gauges_changed = ref [] in
  List.iter
    (fun (name, _help, value) ->
      match value with
      | Registry.Counter v ->
          let prev =
            match Hashtbl.find_opt t.prev_counters name with Some p -> p | None -> 0L
          in
          Hashtbl.replace t.prev_counters name v;
          let d = Int64.sub v prev in
          if d <> 0L then counters := (name, d) :: !counters
      | Registry.Gauge v ->
          gauges := (name, v) :: !gauges;
          let changed =
            match Hashtbl.find_opt t.prev_gauges name with
            | Some p -> p <> v
            | None -> true
          in
          Hashtbl.replace t.prev_gauges name v;
          if changed then gauges_changed := (name, v) :: !gauges_changed
      | Registry.Histogram h ->
          let win =
            match Hashtbl.find_opt t.prev_hists name with
            | Some prev -> Histogram.delta ~since:prev h
            | None -> Histogram.copy h
          in
          Hashtbl.replace t.prev_hists name (Histogram.copy h);
          if Histogram.count win > 0 then hists := (name, win) :: !hists)
    (Registry.snapshot t.registry);
  let w =
    {
      w_seq = t.seq;
      w_t0_ns = t0;
      w_t1_ns = now_ns;
      (* snapshot is name-sorted; the accumulators reversed it *)
      w_counters = List.rev !counters;
      w_gauges = List.rev !gauges;
      w_hists = List.rev !hists;
    }
  in
  t.seq <- t.seq + 1;
  t.next_ns <- now_ns +. t.interval_ns;
  t.sink (line_of_window t.line ~gauges_changed:(List.rev !gauges_changed) w);
  w

let tick t ~now_ns = if now_ns < t.next_ns then None else Some (sample t ~now_ns)

let jsonl t = Buffer.contents t.buf
