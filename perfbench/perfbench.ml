(* The repository benchmark.

     perfbench --workload soak|fuzz|testgen|fleet --seed N --seconds S --trace 0|1

   With --trace 0 it measures the workload's end-to-end metrics with
   nothing traced; with --trace 1 it runs the workload once untraced and
   once as a replica whose calls into each layer are timed, and reports
   the per-layer split. Either way it checks the workload's outputs and
   prints one JSON object as its last line of output. *)

open Probe

(* every per-layer row, in report order; a workload that never calls a
   layer reports zeros for it *)
let layer_names =
  [
    "target.device.inject";
    "target.device.forward";
    "netdebug.checker.tap";
    "netdebug.functional.check_batch";
    "obs.sampler.sample";
    "obs.health.observe";
    "obs.profile.tick";
    "fuzz.oracle.create";
    "fuzz.mutate";
    "fuzz.oracle.exec_batch";
    "p4ir.interp.process";
    "fuzz.coverage.record_spec";
    "target.device.inject_batch";
    "fuzz.oracle.glue";
    "fuzz.minimize";
    "fuzz.oracle.attribute";
    "symexec.testgen.generate";
    "symexec.sexec.explore";
    "symexec.solver.solve";
    "netdebug.functional.check_paths";
    "sdnet.compile";
    "netdebug.harness.deploy";
    "net.fabric.create";
    "net.route.path";
    "net.fabric.forward";
    "packet.parse";
  ]

let count_names =
  [
    "soak.windows";
    "soak.validated";
    "fuzz.edges";
    "fuzz.corpus";
    "fuzz.divergences";
    "fuzz.replay_share";
    "testgen.paths";
    "testgen.solved";
    "testgen.unknown";
    "fleet.hops";
  ]

let traced_result (t : traced) =
  let find name = List.find_opt (fun l -> l.l_name = name) t.tr_layers in
  let layers =
    List.concat_map
      (fun name ->
        layer_metrics ~units:t.tr_units (match find name with Some l -> l | None -> layer name))
      layer_names
  in
  let counts =
    List.map
      (fun name ->
        let unit_ = if name = "fuzz.replay_share" then "ratio" else "count" in
        metric name unit_ (Option.value (List.assoc_opt name t.tr_counts) ~default:0.))
      count_names
  in
  {
    correct = t.tr_failed = 0;
    attempted = t.tr_units;
    failed = t.tr_failed;
    metrics =
      layers
      @ counts
      @ [
          metric "residual.share" "ratio" t.tr_residual;
          metric "tracing.overhead" "ratio" t.tr_overhead;
        ];
  }

let workloads =
  [
    ("soak", (Soak_wl.run, Soak_wl.traced));
    ("fuzz", (Fuzz_wl.run, Fuzz_wl.traced));
    ("testgen", (Testgen_wl.run, Testgen_wl.traced));
    ("fleet", (Fleet_wl.run, Fleet_wl.traced));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage =
    "perfbench --workload soak|fuzz|testgen|fleet --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time of an untraced run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer split (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline usage;
      exit 2
  | Some (run, traced) -> (
      let seconds = float_of_int (max 1 !seconds) in
      match
        if !trace = 0 then run ~seed:!seed ~seconds
        else begin
          let t = traced ~seed:!seed in
          Printf.eprintf "residual %.1f%%, the calls no layer times: %s\n"
            (100. *. t.tr_residual) t.tr_unisolated;
          traced_result t
        end
      with
      | r ->
          List.iter
            (fun m -> Printf.eprintf "%-44s %16.6g %s\n" m.m_name m.m_value m.m_unit)
            r.metrics;
          print_endline (to_json r)
      | exception Replica_diverged msg ->
          prerr_endline ("perfbench: " ^ msg);
          exit 1)
