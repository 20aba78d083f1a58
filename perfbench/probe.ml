(* Measurement primitives shared by every workload: a monotonic
   nanosecond clock, Gc-counted allocation, per-layer accumulators for the
   traced runs, and the result record perfbench prints as JSON. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Minor words are read from the GC counters around each call, never
   estimated: a layer that allocates always shows it. *)
let minor_words () = int_of_float (Gc.minor_words ())

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

type layer = {
  l_name : string;
  mutable l_ns : int;
  mutable l_words : int;
  mutable l_calls : int;
}

let layer name = { l_name = name; l_ns = 0; l_words = 0; l_calls = 0 }

(* Time one public call into a layer. The closure is built by the caller
   before the clock starts, so it is not charged to the layer. *)
let time l f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  l.l_ns <- l.l_ns + (t1 - t0);
  l.l_words <- l.l_words + int_of_float (w1 -. w0);
  l.l_calls <- l.l_calls + 1;
  r

(* A layer known only as the difference of measured ones (a tap inside
   a call, glue around inner calls), charged per call of [like]. *)
let derived name ~like ~ns ~words =
  { l_name = name; l_ns = ns; l_words = words; l_calls = like.l_calls }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* What a workload's traced run hands back. [tr_residual] is
   (end-to-end - sum of its top-level layers) / end-to-end,
   [tr_unisolated] names the calls the residual holds, and
   [tr_overhead] is the traced wall time over the untraced one. *)
type traced = {
  tr_units : int;
  tr_failed : int;
  tr_layers : layer list;
  tr_counts : (string * float) list;
  tr_residual : float;
  tr_unisolated : string;
  tr_overhead : float;
}

let residual ~e2e_ns layers =
  let covered = List.fold_left (fun acc l -> acc + l.l_ns) 0 layers in
  float_of_int (e2e_ns - covered) /. float_of_int e2e_ns

(* A replica that does not reproduce what it replicates has measured
   something else: the run fails instead of reporting layers. *)
exception Replica_diverged of string

(* [<layer>.ns] and [<layer>.words] are per call, [<layer>.calls] per
   workload unit, so a layer's cost per unit is [ns * calls]. A layer the
   workload never calls reports zeros. *)
let layer_metrics ~units l =
  let per_call v = if l.l_calls = 0 then 0. else float_of_int v /. float_of_int l.l_calls in
  [
    metric (l.l_name ^ ".ns") "ns" (per_call l.l_ns);
    metric (l.l_name ^ ".words") "words" (per_call l.l_words);
    metric (l.l_name ^ ".calls") "calls/unit" (float_of_int l.l_calls /. float_of_int (max 1 units));
  ]

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* The untraced run                                                    *)
(* ------------------------------------------------------------------ *)

(* Repetition [k] sets up ([setup k], timed) and then runs its units
   ([units k env], timed, Gc-counted), which returns (units, failed
   units). Repetitions continue while another one still fits in
   [seconds], at least [min_reps] of them.

   The timings are best-of-repetition: the highest rate and the shortest
   set-up any repetition reached. The hosts this runs on are shared and
   their speed moves in phases of tens of seconds, by up to 2x (see
   perfbench/NOTES.md); a median over repetitions moves with the share
   of a run spent in slow phases, the best repetition does not. *)
let repeat ~seconds ~min_reps ~setup ~units =
  let start = now_ns () in
  let best_rate = ref 0. and best_setup = ref infinity in
  let words = ref 0 and total = ref 0 and failed = ref 0 and reps = ref 0 in
  let last = ref 0. in
  while !reps < min_reps || seconds_since start +. !last < seconds do
    let t_rep = now_ns () in
    (* every repetition starts from the same compacted heap, so how much
       garbage the previous one left does not move its timings *)
    Gc.compact ();
    let t0 = now_ns () in
    let env = setup !reps in
    let t1 = now_ns () in
    let w0 = minor_words () in
    let u, f = units !reps env in
    let w1 = minor_words () in
    let t2 = now_ns () in
    let setup_s = float_of_int (t1 - t0) /. 1e9 in
    let rate = float_of_int u /. (float_of_int (t2 - t1) /. 1e9) in
    Printf.eprintf "rep %d: set-up %.6f s, %d units at %.1f/s, %d failed\n%!" !reps setup_s u
      rate f;
    best_setup := Float.min !best_setup setup_s;
    best_rate := Float.max !best_rate rate;
    words := !words + (w1 - w0);
    total := !total + u;
    failed := !failed + f;
    incr reps;
    last := seconds_since t_rep
  done;
  {
    correct = !failed = 0;
    attempted = !total;
    failed = !failed;
    metrics =
      [
        metric "units_per_s" "1/s" !best_rate;
        metric "setup_s" "s" !best_setup;
        metric "words_per_unit" "words" (float_of_int !words /. float_of_int (max 1 !total));
        metric "top_heap_mb" "MB" (top_heap_mb ());
      ];
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value)
          m.m_unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)
