(* Single registration point for named device metrics. Counters live in a
   Stats.Counter.Set (shared with the device's management-channel view, so
   dynamically created program counters surface here too); gauges are
   read-on-snapshot callbacks; histograms are Stats.Histogram. *)

type value =
  | Counter of int64
  | Gauge of float
  | Histogram of Stats.Histogram.t

type t = {
  counters : Stats.Counter.Set.t;
  helps : (string, string) Hashtbl.t;
  gauges : (string, unit -> float) Hashtbl.t;
  histograms : (string, Stats.Histogram.t) Hashtbl.t;
}

let create ?counters () =
  {
    counters = (match counters with Some s -> s | None -> Stats.Counter.Set.create ());
    helps = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let counter_set t = t.counters

let set_help t name help = if help <> "" then Hashtbl.replace t.helps name help

let help t name = match Hashtbl.find_opt t.helps name with Some h -> h | None -> ""

let counter t ?(help = "") name =
  set_help t name help;
  Stats.Counter.Set.find t.counters name

let gauge t ?(help = "") name read =
  set_help t name help;
  Hashtbl.replace t.gauges name read

let histogram t ?(help = "") name =
  set_help t name help;
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Stats.Histogram.create () in
      Hashtbl.replace t.histograms name h;
      h

(* Fold a worker shard's metrics into [into]. Help text is a single
   Hashtbl.replace binding per name — when two shards registered the same
   metric the help must end up bound exactly once, never stacked with
   Hashtbl.add (a stacked binding would make the later removal/replace in
   set_help expose a stale duplicate and double-count the registration).

   [prefix] namespaces every folded metric: a fleet coordinator merging N
   per-device registries passes a distinct prefix per device so equal
   names (stage/<n>/fault_hits, ...) land as distinct fleet metrics
   instead of summing. With a prefix the shared-counter-set shortcut no
   longer applies — the prefixed names are new even in a shared set. *)
let merge ?(prefix = "") ~into src =
  let pre name = if prefix = "" then name else prefix ^ name in
  if prefix <> "" || into.counters != src.counters then
    List.iter
      (fun (name, v) -> Stats.Counter.Set.add into.counters (pre name) v)
      (Stats.Counter.Set.to_alist src.counters);
  Hashtbl.iter
    (fun name h ->
      let name = pre name in
      let dst =
        match Hashtbl.find_opt into.histograms name with
        | Some d -> d
        | None ->
            let d = Stats.Histogram.create () in
            Hashtbl.replace into.histograms name d;
            d
      in
      (* in-place absorb: owners of [dst] keep their live handle *)
      if dst != h then Stats.Histogram.absorb dst h)
    src.histograms;
  Hashtbl.iter
    (fun name help ->
      let name = pre name in
      if Hashtbl.find_opt into.helps name = None then set_help into name help)
    src.helps

let snapshot t =
  let counters =
    List.map
      (fun (n, v) -> (n, help t n, Counter v))
      (Stats.Counter.Set.to_alist t.counters)
  in
  let gauges =
    Hashtbl.fold (fun n read acc -> (n, help t n, Gauge (read ())) :: acc) t.gauges []
  in
  let hists =
    Hashtbl.fold (fun n h acc -> (n, help t n, Histogram h) :: acc) t.histograms []
  in
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (counters @ gauges @ hists)
