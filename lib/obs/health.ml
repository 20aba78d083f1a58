(* Rolling-window health evaluation: declarative rules over Sampler
   windows, a verdict, and firing evidence. Rules are evaluated once per
   window; a run is healthy iff no rule ever fired.

   Rates are per *virtual* second — the device clock, not wall time — so
   verdicts are deterministic for a seeded run. *)

module Histogram = Stats.Histogram

type rule_kind =
  | Counter_still of string
      (* the counter must not move at all (verdict drift, assert failures) *)
  | Rate_below of string * float
      (* counter rate per virtual second must stay strictly under the bound;
         a bound of 0 therefore fires on any increment *)
  | Gauge_below of string * float
  | P99_below of string * float
      (* window p99 of a histogram must stay at or under the ceiling *)
  | Ewma_band of { counter : string; band : float; warmup : int }
      (* anomaly detection: the counter's per-window rate must stay within
         [band] (fractional) of its EWMA baseline (smoothing [ewma_alpha])
         once [warmup] windows have seeded the baseline *)

type rule = { hr_label : string; hr_kind : rule_kind }

let still ~label counter = { hr_label = label; hr_kind = Counter_still counter }

let rate_below ~label counter per_s = { hr_label = label; hr_kind = Rate_below (counter, per_s) }

let gauge_below ~label gauge bound = { hr_label = label; hr_kind = Gauge_below (gauge, bound) }

let p99_below ~label hist ceiling = { hr_label = label; hr_kind = P99_below (hist, ceiling) }

let ewma_alpha = 0.3

let ewma_band ?(warmup = 5) ~label counter band =
  if band <= 0. then invalid_arg "Health.ewma_band: band must be positive";
  { hr_label = label; hr_kind = Ewma_band { counter; band; warmup } }

type firing = {
  fg_rule : string;
  fg_window : int;
  fg_t1_ns : float;
  fg_observed : float;
  fg_limit : float;
  fg_detail : string;
}

type rule_state = {
  rule : rule;
  mutable rs_firings : int;
  mutable rs_last_observed : float;
  mutable rs_ewma : float;
  mutable rs_seen : int;  (* windows fed into the EWMA baseline *)
}

type t = {
  rules : rule_state list;
  mutable windows_seen : int;
  mutable firings : firing list;  (* newest first *)
}

let create rules =
  {
    rules =
      List.map
        (fun rule ->
          { rule; rs_firings = 0; rs_last_observed = 0.; rs_ewma = 0.; rs_seen = 0 })
        rules;
    windows_seen = 0;
    firings = [];
  }

let window_seconds (w : Sampler.window) =
  let dt = (w.Sampler.w_t1_ns -. w.Sampler.w_t0_ns) /. 1e9 in
  if dt > 0. then dt else 1e-9

let eval_rule st (w : Sampler.window) =
  let fire ~observed ~limit detail =
    st.rs_firings <- st.rs_firings + 1;
    Some
      {
        fg_rule = st.rule.hr_label;
        fg_window = w.Sampler.w_seq;
        fg_t1_ns = w.Sampler.w_t1_ns;
        fg_observed = observed;
        fg_limit = limit;
        fg_detail = detail;
      }
  in
  match st.rule.hr_kind with
  | Counter_still name ->
      let d = Int64.to_float (Sampler.counter_delta w name) in
      st.rs_last_observed <- d;
      if d <> 0. then
        fire ~observed:d ~limit:0.
          (Printf.sprintf "%s moved by %.0f in window %d" name d w.Sampler.w_seq)
      else None
  | Rate_below (name, per_s) ->
      let rate = Int64.to_float (Sampler.counter_delta w name) /. window_seconds w in
      st.rs_last_observed <- rate;
      if rate > per_s then
        fire ~observed:rate ~limit:per_s
          (Printf.sprintf "%s at %.1f/s exceeds %.1f/s" name rate per_s)
      else None
  | Gauge_below (name, bound) -> (
      match Sampler.gauge_value w name with
      | None -> None
      | Some v ->
          st.rs_last_observed <- v;
          if v > bound then
            fire ~observed:v ~limit:bound
              (Printf.sprintf "%s at %g exceeds %g" name v bound)
          else None)
  | P99_below (name, ceiling) -> (
      match Sampler.hist_window w name with
      | None -> None
      | Some h ->
          let p99 = Histogram.percentile h 99. in
          st.rs_last_observed <- p99;
          if p99 > ceiling then
            fire ~observed:p99 ~limit:ceiling
              (Printf.sprintf "%s window p99 %.1f exceeds %.1f (n=%d)" name p99 ceiling
                 (Histogram.count h))
          else None)
  | Ewma_band { counter; band; warmup } ->
      let rate = Int64.to_float (Sampler.counter_delta w counter) /. window_seconds w in
      st.rs_last_observed <- rate;
      let result =
        if st.rs_seen < warmup then None
        else begin
          (* floor the baseline so a quiet counter cannot divide by zero *)
          let baseline = Float.max st.rs_ewma 1.0 in
          let dev = Float.abs (rate -. st.rs_ewma) /. baseline in
          if dev > band then
            fire ~observed:rate ~limit:band
              (Printf.sprintf "%s rate %.1f/s deviates %.0f%% from baseline %.1f/s" counter
                 rate (dev *. 100.) st.rs_ewma)
          else None
        end
      in
      (* anomalous windows do not poison the baseline *)
      if result = None then begin
        st.rs_ewma <-
          (if st.rs_seen = 0 then rate
           else (ewma_alpha *. rate) +. ((1. -. ewma_alpha) *. st.rs_ewma));
        st.rs_seen <- st.rs_seen + 1
      end;
      result

let observe t w =
  t.windows_seen <- t.windows_seen + 1;
  let fired = List.filter_map (fun st -> eval_rule st w) t.rules in
  t.firings <- List.rev_append fired t.firings;
  fired

let firings t = List.rev t.firings

let healthy t = t.firings = []

let windows_seen t = t.windows_seen

let max_firings_in_json = 32

let to_json t =
  let num f = Json.Num f in
  let rules =
    List.map
      (fun st ->
        Json.Obj
          [
            ("rule", Json.Str st.rule.hr_label);
            ("firings", num (float_of_int st.rs_firings));
            ("last_observed", num st.rs_last_observed);
          ])
      t.rules
  in
  let all = firings t in
  let shown = List.filteri (fun i _ -> i < max_firings_in_json) all in
  let firing_objs =
    List.map
      (fun f ->
        Json.Obj
          [
            ("rule", Json.Str f.fg_rule);
            ("window", num (float_of_int f.fg_window));
            ("t1_ns", num f.fg_t1_ns);
            ("observed", num f.fg_observed);
            ("limit", num f.fg_limit);
            ("detail", Json.Str f.fg_detail);
          ])
      shown
  in
  Json.to_string
    (Json.Obj
       [
         ("verdict", Json.Str (if healthy t then "healthy" else "unhealthy"));
         ("windows", num (float_of_int t.windows_seen));
         ("rules", Json.Arr rules);
         ("firings", Json.Arr firing_objs);
         ("firings_total", num (float_of_int (List.length all)));
       ])

let pp_firing ppf f =
  Format.fprintf ppf "window %d at %.0fns [%s] %s" f.fg_window f.fg_t1_ns f.fg_rule
    f.fg_detail

let pp ppf t =
  if healthy t then
    Format.fprintf ppf "healthy (%d windows, %d rules)" t.windows_seen
      (List.length t.rules)
  else begin
    let fs = firings t in
    Format.fprintf ppf "UNHEALTHY: %d firing(s) over %d windows" (List.length fs)
      t.windows_seen;
    List.iteri
      (fun i f -> if i < 8 then Format.fprintf ppf "@\n  %a" pp_firing f)
      fs;
    if List.length fs > 8 then Format.fprintf ppf "@\n  ... %d more" (List.length fs - 8)
  end
