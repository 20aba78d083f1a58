(* Tests for counters, histograms, rate meters and the table renderer. *)

module Counter = Stats.Counter
module Histogram = Stats.Histogram
module Rate = Stats.Rate
module Texttable = Stats.Texttable

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

let close ?(eps = 1e-6) msg expected got =
  if abs_float (expected -. got) > eps then
    Alcotest.failf "%s: expected %f, got %f" msg expected got

(* ---------------- Counter ---------------- *)

let test_counter_basic () =
  let c = Counter.create () in
  Counter.incr c;
  Counter.incr c;
  Counter.add c 5L;
  check_i64 "value" 7L (Counter.get c);
  Counter.reset c;
  check_i64 "reset" 0L (Counter.get c)

let test_counter_set () =
  let s = Counter.Set.create () in
  Counter.Set.incr s "a";
  Counter.Set.incr s "a";
  Counter.Set.add s "b" 10L;
  check_i64 "a" 2L (Counter.Set.get s "a");
  check_i64 "b" 10L (Counter.Set.get s "b");
  check_i64 "unknown reads zero" 0L (Counter.Set.get s "nope");
  Alcotest.(check (list (pair string int64)))
    "alist sorted"
    [ ("a", 2L); ("b", 10L) ]
    (Counter.Set.to_alist s)

let test_counter_set_reset () =
  let s = Counter.Set.create () in
  Counter.Set.add s "x" 3L;
  Counter.Set.reset_all s;
  check_i64 "cleared" 0L (Counter.Set.get s "x")

(* ---------------- Histogram ---------------- *)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  close "mean" 0.0 (Histogram.mean h);
  close "p99" 0.0 (Histogram.percentile h 99.0)

(* empty histograms must never leak internal fold identities: minv starts
   at +inf and maxv at 0., neither is a measurement *)
let test_histogram_empty_extrema () =
  let h = Histogram.create () in
  close "min is 0, not +inf" 0.0 (Histogram.min_value h);
  check_bool "min is finite" true (Float.is_finite (Histogram.min_value h));
  close "max" 0.0 (Histogram.max_value h);
  List.iter
    (fun p -> close (Printf.sprintf "p%.0f" p) 0.0 (Histogram.percentile h p))
    [ 0.0; 50.0; 100.0 ];
  (* same after data comes and goes *)
  Histogram.add h 42.0;
  Histogram.clear h;
  close "min after clear" 0.0 (Histogram.min_value h);
  close "p50 after clear" 0.0 (Histogram.percentile h 50.0)

let test_histogram_single () =
  let h = Histogram.create () in
  Histogram.add h 100.0;
  check_int "count" 1 (Histogram.count h);
  close "mean" 100.0 (Histogram.mean h);
  close "min" 100.0 (Histogram.min_value h);
  close "max" 100.0 (Histogram.max_value h)

let test_histogram_percentile_bounds () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p99 = Histogram.percentile h 99.0 in
  (* log-binned: answers are upper bin bounds, within ~5% above truth *)
  check_bool "p50 in band" true (p50 >= 500.0 && p50 <= 530.0);
  check_bool "p99 in band" true (p99 >= 990.0 && p99 <= 1000.0);
  check_bool "monotone" true (p99 >= p50)

let test_histogram_percentile_never_exceeds_max () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 3.0; 900.0; 90000.0 ];
  check_bool "p100 <= max" true (Histogram.percentile h 100.0 <= Histogram.max_value h)

let test_histogram_stddev () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10.0; 10.0; 10.0 ];
  close "zero spread" 0.0 (Histogram.stddev h);
  let h2 = Histogram.create () in
  List.iter (Histogram.add h2) [ 0.0; 20.0 ];
  close "spread 10" 10.0 (Histogram.stddev h2)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 5.0;
  Histogram.add b 15.0;
  let m = Histogram.merge a b in
  check_int "merged count" 2 (Histogram.count m);
  close "merged mean" 10.0 (Histogram.mean m)

let prop_percentile_bracket =
  QCheck.Test.make ~count:200 ~name:"percentile brackets true quantile"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (float_range 0.0 1e6))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let true_p90 = List.nth sorted (min (n - 1) (int_of_float (ceil (0.9 *. float_of_int n)) - 1 |> max 0)) in
      let est = Histogram.percentile h 90.0 in
      (* upper bound within one bin (5%) plus the sub-1.0 bin *)
      est >= true_p90 -. 1e-9 && est <= (true_p90 *. 1.06) +. 1.0)

let test_hot_cells_allocate_nothing () =
  (* every emission bumps counters and adds a latency: once the value's
     bin is inside the stored span neither call may allocate (boxed
     int64 counters and mixed-record float fields cost 3 + 6 words) *)
  let c = Counter.create () and h = Histogram.create () in
  let v = 150.0 in
  Histogram.add h v;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Counter.incr c;
    Histogram.add h v
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f words for 1000 incr+add" words) true (words < 100.);
  check_i64 "counted" 1_000L (Counter.get c);
  check_int "added" 1_001 (Histogram.count h)

(* The histogram stores only its populated bin span. Its observable
   behaviour must be that of one count per bin over all 1024 bins: this
   dense model is that reference, and the property drives both through
   the same adds, snapshots, clears, window deltas and merges. *)
module Dense = struct
  let nbins = 1024

  type t = {
    bins : int array;
    mutable n : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () =
    { bins = Array.make nbins 0; n = 0; sum = 0.; sumsq = 0.; minv = infinity; maxv = 0. }

  let bin_of v = if v < 1.0 then 0 else min (nbins - 1) (1 + int_of_float (log v /. log 1.05))

  let upper_of i = if i = 0 then 1.0 else 1.05 ** float_of_int i

  let add t v =
    let v = if v < 0. then 0. else v in
    t.bins.(bin_of v) <- t.bins.(bin_of v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    t.sumsq <- t.sumsq +. (v *. v);
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v

  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let rank = max 1 (min t.n (int_of_float (ceil (p /. 100. *. float_of_int t.n)))) in
      let rec go i acc =
        if i = nbins then t.maxv
        else
          let acc = acc + t.bins.(i) in
          if acc >= rank then min t.maxv (upper_of i) else go (i + 1) acc
      in
      go 0 0
    end

  let copy t = { t with bins = Array.copy t.bins }

  let merge a b =
    {
      bins = Array.init nbins (fun i -> a.bins.(i) + b.bins.(i));
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      sumsq = a.sumsq +. b.sumsq;
      minv = min a.minv b.minv;
      maxv = max a.maxv b.maxv;
    }

  let delta ~since cur =
    let bins = Array.init nbins (fun i -> max 0 (cur.bins.(i) - since.bins.(i))) in
    let t =
      {
        (create ()) with
        bins;
        n = max 0 (cur.n - since.n);
        sum = cur.sum -. since.sum;
        sumsq = cur.sumsq -. since.sumsq;
      }
    in
    let populated = List.filter (fun i -> bins.(i) > 0) (List.init nbins Fun.id) in
    (if t.n > 0 then
       match populated with
       | [] -> ()
       | first :: _ ->
           let last = List.nth populated (List.length populated - 1) in
           t.minv <- (if first = 0 then 0. else upper_of (first - 1));
           t.maxv <- min cur.maxv (upper_of last));
    t

  let clear t =
    Array.fill t.bins 0 nbins 0;
    t.n <- 0;
    t.sum <- 0.;
    t.sumsq <- 0.;
    t.minv <- infinity;
    t.maxv <- 0.
end

let same_as_dense h (d : Dense.t) =
  Histogram.count h = d.Dense.n
  && Histogram.total h = d.Dense.sum
  && Histogram.min_value h = (if d.Dense.n = 0 then 0. else d.Dense.minv)
  && Histogram.max_value h = d.Dense.maxv
  && List.for_all
       (fun p -> Histogram.percentile h p = Dense.percentile d p)
       [ 0.; 1.; 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ]

let prop_span_matches_dense =
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, float_range 0. 1e6);
          (2, float_range (-5.) 2.);
          (2, float_range 100. 200.);
          (1, return 1e300);
        ])
  in
  let samples = QCheck.Gen.(list_size (int_range 0 60) value) in
  QCheck.Test.make ~count:300 ~name:"span storage matches dense bins"
    (QCheck.make QCheck.Gen.(quad samples samples samples bool))
    (fun (xs, ys, zs, clear) ->
      let h = Histogram.create () and d = Dense.create () in
      let add_both vs = List.iter (fun v -> Histogram.add h v; Dense.add d v) vs in
      add_both xs;
      let ok_xs = same_as_dense h d in
      let snap = Histogram.copy h and dsnap = Dense.copy d in
      if clear then begin
        Histogram.clear h;
        Dense.clear d
      end;
      add_both ys;
      (* later adds never reach the snapshot *)
      let ok_snap = same_as_dense snap dsnap in
      let w = Histogram.delta ~since:snap h and dw = Dense.delta ~since:dsnap d in
      let other = Histogram.create () and dother = Dense.create () in
      List.iter (fun v -> Histogram.add other v; Dense.add dother v) zs;
      let m = Histogram.merge w other and dm = Dense.merge dw dother in
      Histogram.absorb h other;
      let dh = Dense.merge d dother in
      ok_xs && ok_snap && same_as_dense w dw && same_as_dense m dm && same_as_dense h dh)

(* ---------------- Rate ---------------- *)

let test_rate_basic () =
  let r = Rate.create () in
  (* 1000-byte packets every 1000 ns: 1 Mpps x 8 Gb/s *)
  for i = 0 to 10 do
    Rate.record r ~now_ns:(float_of_int (i * 1000)) ~bytes:1000
  done;
  close ~eps:1e3 "pps" 1e6 (Rate.packets_per_sec r);
  check_int "packets" 11 (Rate.packets r)

let test_rate_single_observation () =
  let r = Rate.create () in
  Rate.record r ~now_ns:5.0 ~bytes:100;
  close "no rate from one sample" 0.0 (Rate.packets_per_sec r)

let test_rate_gbps () =
  let r = Rate.create () in
  (* 125 bytes per 100ns = 10 Gb/s *)
  for i = 0 to 100 do
    Rate.record r ~now_ns:(float_of_int (i * 100)) ~bytes:125
  done;
  close ~eps:0.01 "10G" 10.0 (Rate.gbps r)

(* ---------------- Texttable ---------------- *)

let test_texttable_render () =
  let t = Texttable.create [ "name"; "value" ] in
  Texttable.add_row t [ "alpha"; "1" ];
  Texttable.add_row t [ "b"; "22" ];
  let s = Texttable.render t in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "header present" true (contains s "name");
  check_bool "cell present" true (contains s "alpha");
  (* every line has the same length *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let lens = List.map String.length lines in
  check_bool "aligned" true (List.for_all (fun l -> l = List.hd lens) lens)

let test_texttable_ragged_rows () =
  let t = Texttable.create [ "a"; "b"; "c" ] in
  Texttable.add_row t [ "1" ];
  Texttable.add_row t [ "1"; "2"; "3"; "4" ];
  let s = Texttable.render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let lens = List.map String.length lines in
  check_bool "still aligned" true (List.for_all (fun l -> l = List.hd lens) lens)

let () =
  Alcotest.run "stats"
    [
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "set" `Quick test_counter_set;
          Alcotest.test_case "set reset" `Quick test_counter_set_reset;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "empty extrema" `Quick test_histogram_empty_extrema;
          Alcotest.test_case "single" `Quick test_histogram_single;
          Alcotest.test_case "percentile bounds" `Quick test_histogram_percentile_bounds;
          Alcotest.test_case "p100 <= max" `Quick test_histogram_percentile_never_exceeds_max;
          Alcotest.test_case "stddev" `Quick test_histogram_stddev;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          QCheck_alcotest.to_alcotest prop_percentile_bracket;
          QCheck_alcotest.to_alcotest prop_span_matches_dense;
          Alcotest.test_case "hot cells allocate nothing" `Quick
            test_hot_cells_allocate_nothing;
        ] );
      ( "rate",
        [
          Alcotest.test_case "basic" `Quick test_rate_basic;
          Alcotest.test_case "single observation" `Quick test_rate_single_observation;
          Alcotest.test_case "gbps" `Quick test_rate_gbps;
        ] );
      ( "texttable",
        [
          Alcotest.test_case "render" `Quick test_texttable_render;
          Alcotest.test_case "ragged rows" `Quick test_texttable_ragged_rows;
        ] );
    ]
