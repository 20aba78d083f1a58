(* Workload [testgen]: Usecases.Functional.check_paths (what
   `netdebug testgen --check` runs) on every bundle of the program
   library under the shipped quirks, one pass per solver seed. Unit: one
   checked path. *)

open Probe
module Functional = Netdebug.Usecases.Functional
module Harness = Netdebug.Harness
module Testgen = Symexec.Testgen
module Programs = P4ir.Programs

let bundles = Programs.all

(* The solver seeds of a repetition's eight library passes. They are the
   same in every run: the solver's search effort differs by up to a
   third between seeds (paths it gives up on cost 20 000 tries each and
   check nothing), which would swamp the changes this workload is meant
   to show. The run seed only rotates the order the programs are
   checked in. *)
let solver_seeds = List.init 8 (fun i -> i + 1)

let rotate seed l =
  let k = abs seed mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let name (b : Programs.bundle) = b.Programs.program.P4ir.Ast.p_name

(* The seed commit's diverging paths under the shipped quirks: each is
   a parser reject or checksum failure the reject bug forwards. *)
let expected_divergent = function
  | "basic_router" | "router_split" | "buggy_router" -> [ 6; 7 ]
  | "parser_guard" -> [ 3; 4; 7 ]
  | "acl_firewall" -> [ 11 ]
  | "mpls_tunnel" -> [ 4 ]
  | "vlan_router" -> [ 5; 10 ]
  | "ipv6_router" -> [ 6 ]
  | "calc" -> [ 7 ]
  | "rate_limiter" -> [ 17; 18 ]
  | "kv_cache" -> [ 5 ]
  | _ -> []

(* Checks the verdicts against the seed commit's. Within one check, a
   diverging path that should agree is wrong, and so is basic_router
   agreeing on path 6 or 7. A witness may miss the quirk on other paths
   for some solver seeds (acl_firewall's path 11 does on about one seed
   in ten), so the rest of the expected set is checked over all the
   passes of a run: a path that never diverges is wrong once. *)
type verdicts = { diverged : (string, int list) Hashtbl.t; mutable wrong : int }

let verdicts () = { diverged = Hashtbl.create 16; wrong = 0 }

let note vs (pr : Functional.path_report) =
  let program = pr.Functional.pr_oracle.Testgen.tg_program in
  let expected = expected_divergent program in
  let diverged = List.map (fun d -> d.Functional.dv_path) pr.Functional.pr_divergences in
  let unexpected = List.filter (fun p -> not (List.mem p expected)) diverged in
  let must =
    if program = "basic_router" then List.filter (fun p -> not (List.mem p diverged)) [ 6; 7 ]
    else []
  in
  let before = Option.value (Hashtbl.find_opt vs.diverged program) ~default:[] in
  Hashtbl.replace vs.diverged program (List.sort_uniq compare (diverged @ before));
  let wrong = List.length unexpected + List.length must in
  if wrong > 0 then
    Printf.eprintf "testgen: %s diverged on paths [%s], expected [%s]\n" program
      (String.concat " " (List.map string_of_int diverged))
      (String.concat " " (List.map string_of_int expected));
  vs.wrong <- vs.wrong + wrong

(* expected diverging paths no pass of the run saw diverge *)
let never_diverged vs =
  List.fold_left
    (fun acc b ->
      let seen = Option.value (Hashtbl.find_opt vs.diverged (name b)) ~default:[] in
      let missing = List.filter (fun p -> not (List.mem p seen)) (expected_divergent (name b)) in
      if missing <> [] then
        Printf.eprintf "testgen: %s never diverged on paths [%s]\n" (name b)
          (String.concat " " (List.map string_of_int missing));
      acc + List.length missing)
    0 bundles

let check h ~seed = Functional.check_paths ~seed ~jobs:1 h

(* A faithful toolchain must agree with the symbolic oracle on every
   program: the control that the divergences above are the quirk's. *)
let faithful_failures ~seed =
  List.fold_left
    (fun acc b ->
      let pr = check (Harness.deploy ~quirks:Sdnet.Quirks.none b) ~seed in
      acc + List.length pr.Functional.pr_divergences)
    0 bundles

let run ~seed ~seconds =
  let vs = verdicts () in
  let res =
    repeat ~seconds ~min_reps:5
      ~setup:(fun _ -> List.map Harness.deploy (rotate seed bundles))
      ~units:(fun _ hs ->
        let units = ref 0 and wrong = vs.wrong in
        List.iter
          (fun seed ->
            List.iter
              (fun h ->
                let pr = check h ~seed in
                units := !units + pr.Functional.pr_checked;
                note vs pr)
              hs)
          solver_seeds;
        (!units, vs.wrong - wrong))
  in
  let f = never_diverged vs + faithful_failures ~seed:(List.hd solver_seeds) in
  { res with correct = res.correct && f = 0; failed = res.failed + f }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let traced ~seed =
  let compile = layer "sdnet.compile" and deploy = layer "netdebug.harness.deploy" in
  let hs =
    List.map
      (fun b ->
        ignore (time compile (fun () -> Sdnet.Compile.compile_exn b.Programs.program));
        (b, time deploy (fun () -> Harness.deploy b)))
      (rotate seed bundles)
  in
  let sweep f = List.iter (fun seed -> List.iter (fun (b, h) -> f seed b h) hs) solver_seeds in
  let units = ref 0 and vs = verdicts () in
  let t0 = now_ns () in
  sweep (fun seed _ h ->
      let pr = check h ~seed in
      units := !units + pr.Functional.pr_checked;
      note vs pr);
  let untraced_ns = now_ns () - t0 in
  let check_paths = layer "netdebug.functional.check_paths" in
  let t1 = now_ns () in
  sweep (fun seed _ h -> ignore (time check_paths (fun () -> check h ~seed)));
  let traced_ns = now_ns () - t1 in
  (* the symbolic half of check_paths, call by call on the same programs
     and seeds *)
  let generate = layer "symexec.testgen.generate" in
  let explore = layer "symexec.sexec.explore" in
  let solve = layer "symexec.solver.solve" in
  let paths = ref 0 and solved = ref 0 and unknown = ref 0 in
  sweep (fun seed b _ ->
      let program = b.Programs.program and rt = Functional.oracle_runtime b in
      let report =
        time generate (fun () ->
            Testgen.generate ~seed ~jobs:1 ~ingress_port:Harness.generator_port program rt)
      in
      if seed = List.hd solver_seeds then begin
        let s = report.Testgen.tg_stats in
        paths := !paths + s.Testgen.tg_paths;
        solved := !solved + s.Testgen.tg_solved;
        unknown := !unknown + s.Testgen.tg_unknown
      end;
      let run = time explore (fun () -> Symexec.Sexec.explore program rt) in
      List.iter
        (fun p ->
          ignore (time solve (fun () -> Symexec.Solver.solve ~seed p.Symexec.Sexec.p_conds)))
        run.Symexec.Sexec.paths);
  let f = never_diverged vs + faithful_failures ~seed:(List.hd solver_seeds) in
  {
    tr_units = !units;
    tr_failed = vs.wrong + f;
    tr_layers = [ check_paths; generate; explore; solve; compile; deploy ];
    tr_counts =
      [
        ("testgen.paths", float_of_int !paths);
        ("testgen.solved", float_of_int !solved);
        ("testgen.unknown", float_of_int !unknown);
      ];
    tr_residual = residual ~e2e_ns:traced_ns [ check_paths ];
    tr_unisolated = "the sweep over programs and seeds around check_paths";
    tr_overhead = float_of_int traced_ns /. float_of_int untraced_ns;
  }
