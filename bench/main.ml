(* Benchmark/experiment driver.

     dune exec bench/main.exe                        — everything
     dune exec bench/main.exe -- figure2             — one experiment
     dune exec bench/main.exe -- --list              — list experiment names
     dune exec bench/main.exe -- --no-micro          — experiments only
     dune exec bench/main.exe -- micro --json FILE   — also write microbench
                                                       results as JSON
     dune exec bench/main.exe -- micro --check-overhead
                                                     — exit 1 if a micro
                                                       gate trips: ratio
                                                       gates read best-of-
                                                       rounds, absolute
                                                       gates best or mean
                                                       (see microbench.ml)
*)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse json wanted no_micro list gate = function
    | [] -> (json, List.rev wanted, no_micro, list, gate)
    | "--json" :: file :: rest -> parse (Some file) wanted no_micro list gate rest
    | [ "--json" ] ->
        prerr_endline "--json needs a file argument";
        exit 2
    | "--list" :: rest -> parse json wanted no_micro true gate rest
    | "--no-micro" :: rest -> parse json wanted true list gate rest
    | "--check-overhead" :: rest -> parse json wanted no_micro list true rest
    | a :: rest -> parse json (a :: wanted) no_micro list gate rest
  in
  let json, wanted, no_micro, list, check_overhead = parse None [] false false false args in
  if list then begin
    List.iter (fun (name, _) -> print_endline name) Experiments.all;
    print_endline "micro"
  end
  else begin
    let run_micro = (not no_micro) && (wanted = [] || List.mem "micro" wanted) in
    let selected =
      if wanted = [] then Experiments.all
      else List.filter (fun (name, _) -> List.mem name wanted) Experiments.all
    in
    Format.printf "NetDebug experiment reproduction (simulated NetFPGA-SUME / SDNet)@.";
    List.iter (fun (_, f) -> f ()) selected;
    if run_micro then Microbench.run ?json ~check_overhead ();
    Format.printf "@.done.@."
  end
