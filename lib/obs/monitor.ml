(* Status monitoring folded into the health plane: run the paper's
   use-case 6 probe (periodic Read_status snapshots while paced live
   traffic flows), synthesize Sampler windows from consecutive
   snapshots, and judge them with the same declarative Health rules the
   soak uses — instead of ad-hoc printing of raw snapshots. *)

module Harness = Netdebug.Harness
module Status = Netdebug.Usecases.Status
module Wire = Netdebug.Wire

type result = {
  mo_snapshots : Wire.status_summary list;
  mo_health : Health.t;
}

(* Counter names the synthesized windows carry; rules address these. *)
let c_in = "status/packets_in"

let c_out = "status/packets_out"

let c_queue_drops = "status/queue_drops"

let c_pipeline_drops = "status/pipeline_drops"

let g_queue_depth = "status/queue_depth"

let default_rules ~max_queue_depth =
  [
    Health.still ~label:"queue-drops" c_queue_drops;
    Health.still ~label:"pipeline-drops" c_pipeline_drops;
    Health.gauge_below ~label:"queue-depth" g_queue_depth max_queue_depth;
  ]

(* Consecutive snapshots bracket a window: cumulative device counters
   become per-window deltas, the queue depth is instantaneous. *)
let windows_of_snapshots snaps =
  let delta f a b = Int64.sub (f b) (f a) in
  let rec go seq acc = function
    | a :: (b :: _ as rest) ->
        let w =
          {
            Sampler.w_seq = seq;
            w_t0_ns = a.Wire.ss_time_ns;
            w_t1_ns = b.Wire.ss_time_ns;
            w_counters =
              List.filter
                (fun (_, d) -> d <> 0L)
                [
                  (c_in, delta (fun s -> s.Wire.ss_packets_in) a b);
                  (c_out, delta (fun s -> s.Wire.ss_packets_out) a b);
                  (c_queue_drops, delta (fun s -> s.Wire.ss_queue_drops) a b);
                  (c_pipeline_drops, delta (fun s -> s.Wire.ss_pipeline_drops) a b);
                ];
            w_gauges = [ (g_queue_depth, float_of_int b.Wire.ss_queue_depth) ];
            w_hists = [];
          }
        in
        go (seq + 1) (w :: acc) rest
    | _ -> List.rev acc
  in
  go 0 [] snaps

let run ?period_packets ?samples ?load (h : Harness.t) ~background =
  let snaps = Status.monitor ?period_packets ?samples ?load h ~background in
  let max_queue_depth =
    float_of_int (Target.Device.config h.Harness.device).Target.Config.rx_queue_packets
    /. 2.
  in
  let health = Health.create (default_rules ~max_queue_depth) in
  List.iter (fun w -> ignore (Health.observe health w)) (windows_of_snapshots snaps);
  { mo_snapshots = snaps; mo_health = health }

let healthy r = Health.healthy r.mo_health

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "      t_ns        in       out  q_drops  p_drops  depth\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%10.0f %9Ld %9Ld %8Ld %8Ld %6d\n" s.Wire.ss_time_ns
           s.Wire.ss_packets_in s.Wire.ss_packets_out s.Wire.ss_queue_drops
           s.Wire.ss_pipeline_drops s.Wire.ss_queue_depth))
    r.mo_snapshots;
  Buffer.add_string b (Format.asprintf "health: %a\n" Health.pp r.mo_health);
  Buffer.contents b
