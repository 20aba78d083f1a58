module Ast = P4ir.Ast
module Value = P4ir.Value
module Stdmeta = P4ir.Stdmeta
module Bitstring = Bitutil.Bitstring

type verdict = Holds | Violated | Unknown

type finding = {
  f_property : string;
  f_verdict : verdict;
  f_detail : string;
  f_witness : (int * Bitstring.t) option;
}

let verdict_to_string = function
  | Holds -> "HOLDS"
  | Violated -> "VIOLATED"
  | Unknown -> "UNKNOWN"

let pp_finding ppf f =
  Format.fprintf ppf "%-9s %s — %s" (verdict_to_string f.f_verdict) f.f_property f.f_detail

let witness_of path model =
  let port = Value.to_int (Solver.model_value model path.Sexec.p_ingress_port.Sym.v_id) in
  (* clamp to a plausible physical port *)
  let port = port land 0x3 in
  (port, Sexec.witness_bits path model)

let assertions program runtime =
  let run = Sexec.explore program runtime in
  let by_msg = Hashtbl.create 8 in
  List.iter
    (fun (conds, cond, msg) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_msg msg) in
      Hashtbl.replace by_msg msg ((conds, cond) :: prev))
    run.Sexec.obligations;
  Hashtbl.fold
    (fun msg obs acc ->
      let violation = ref None and unresolved = ref 0 in
      List.iter
        (fun (conds, cond) ->
          if !violation = None then
            match Solver.solve (Sym.not_ cond :: conds) with
            | Solver.Sat model ->
                (* build a pseudo-path for witness rendering: reuse the first
                   explored path with the same condition prefix if any *)
                let path =
                  List.find_opt
                    (fun p ->
                      List.for_all (fun c -> List.mem c p.Sexec.p_conds) conds)
                    run.Sexec.paths
                in
                violation := Some (Option.map (fun p -> witness_of p model) path)
            | Solver.Unsat -> ()
            | Solver.Unknown -> incr unresolved)
        obs;
      let f_verdict, f_detail, f_witness =
        match !violation with
        | Some witness -> (Violated, "assertion can fail on a reachable path", witness)
        | None when !unresolved > 0 ->
            ( Unknown,
              Printf.sprintf "%d of %d obligation(s) unresolved within the search budget"
                !unresolved (List.length obs),
              None )
        | None -> (Holds, "no counterexample in bounded search", None)
      in
      { f_property = Printf.sprintf "assert \"%s\"" msg; f_verdict; f_detail; f_witness }
      :: acc)
    by_msg []

let rejected_are_dropped program runtime =
  let run = Sexec.explore program runtime in
  let reject_paths =
    List.filter (fun p -> match p.Sexec.p_ending with Sexec.Rejected _ -> true | _ -> false)
      run.Sexec.paths
  in
  (* In the specification semantics, a rejected path terminates without
     reaching the deparser: this is exact over the explored model. *)
  {
    f_property = "rejected packets are dropped";
    f_verdict = Holds;
    f_detail =
      Printf.sprintf
        "all %d reject path(s) of the specification terminate without forwarding \
         (verified on the program specification only — hardware behaviour is out of \
         scope for this tool)"
        (List.length reject_paths);
    f_witness = None;
  }

let reject_reachable program runtime =
  let run = Sexec.explore program runtime in
  let i = ref 0 in
  List.filter_map
    (fun p ->
      match p.Sexec.p_ending with
      | Sexec.Rejected err -> (
          incr i;
          match Solver.solve p.Sexec.p_conds with
          | Solver.Sat model ->
              Some
                {
                  f_property = Printf.sprintf "reject path #%d (%s) reachable" !i
                      (Stdmeta.error_name err);
                  f_verdict = Holds;
                  f_detail = "witness packet generated";
                  f_witness = Some (witness_of p model);
                }
          | Solver.Unsat -> None
          | Solver.Unknown ->
              Some
                {
                  f_property = Printf.sprintf "reject path #%d (%s) reachable" !i
                      (Stdmeta.error_name err);
                  f_verdict = Unknown;
                  f_detail = "no witness found within the search budget";
                  f_witness = None;
                })
      | Sexec.Dropped _ | Sexec.Forwarded -> None)
    run.Sexec.paths

let forward_requires_header ~header program runtime =
  let run = Sexec.explore program runtime in
  let offending =
    List.filter
      (fun p ->
        p.Sexec.p_ending = Sexec.Forwarded
        && not (List.exists (fun (h, _) -> String.equal h header) p.Sexec.p_extracts)
        && not
             (List.exists
                (fun (h, _, _) -> String.equal h header)
                p.Sexec.p_fields))
      run.Sexec.paths
  in
  let rec first_sat = function
    | [] -> None
    | p :: rest -> (
        match Solver.solve p.Sexec.p_conds with
        | Solver.Sat model -> Some (p, model)
        | Solver.Unsat | Solver.Unknown -> first_sat rest)
  in
  match first_sat offending with
  | Some (p, model) ->
      {
        f_property = Printf.sprintf "no forward without valid %s" header;
        f_verdict = Violated;
        f_detail = "a packet can be forwarded with the header invalid";
        f_witness = Some (witness_of p model);
      }
  | None ->
      {
        f_property = Printf.sprintf "no forward without valid %s" header;
        f_verdict = (if offending = [] then Holds else Unknown);
        f_detail =
          (if offending = [] then "every forwarded path carries the header"
           else "offending paths exist but none proved reachable in budget");
        f_witness = None;
      }

let ttl_decremented program runtime =
  let run = Sexec.explore program runtime in
  let result = ref None in
  List.iter
    (fun p ->
      if !result = None && p.Sexec.p_ending = Sexec.Forwarded then
        match
          ( List.find_opt (fun (h, _) -> String.equal h "ipv4") p.Sexec.p_extracts,
            List.find_opt
              (fun (h, f, _) -> String.equal h "ipv4" && String.equal f "ttl")
              p.Sexec.p_fields )
        with
        | Some (_, fieldvars), Some (_, _, final_ttl) -> (
            match List.assoc_opt "ttl" fieldvars with
            | Some ttl_var ->
                let expected =
                  Sym.bin Ast.Sub (Sym.Var ttl_var) (Sym.of_int ~width:8 1)
                in
                if not (Sym.equal final_ttl expected) then begin
                  (* structural mismatch: confirm reachability of the path
                     where they differ *)
                  let differs = Sym.bin Ast.Neq final_ttl expected in
                  match Solver.solve (differs :: p.Sexec.p_conds) with
                  | Solver.Sat model -> result := Some (Violated, Some (witness_of p model))
                  | Solver.Unsat -> ()
                  | Solver.Unknown -> result := Some (Unknown, None)
                end
            | None -> ())
        | _, _ -> ())
    run.Sexec.paths;
  match !result with
  | Some (Violated, witness) ->
      {
        f_property = "forwarded IPv4 packets have ttl_out = ttl_in - 1";
        f_verdict = Violated;
        f_detail = "a forwarded path leaves the TTL untouched or wrong";
        f_witness = witness;
      }
  | Some (v, _) ->
      {
        f_property = "forwarded IPv4 packets have ttl_out = ttl_in - 1";
        f_verdict = v;
        f_detail = "structural mismatch found but reachability is unresolved";
        f_witness = None;
      }
  | None ->
      {
        f_property = "forwarded IPv4 packets have ttl_out = ttl_in - 1";
        f_verdict = Holds;
        f_detail = "all forwarded IPv4 paths decrement the TTL";
        f_witness = None;
      }

let action_coverage program runtime =
  let run = Sexec.explore program runtime in
  List.concat_map
    (fun (tbl : Ast.table) ->
      let exercised =
        List.sort_uniq String.compare
          (List.concat_map
             (fun p ->
               List.filter_map
                 (fun (t, a) -> if String.equal t tbl.Ast.t_name then Some a else None)
                 p.Sexec.p_tables)
             run.Sexec.paths)
      in
      List.map
        (fun action ->
          let hit = List.mem action exercised in
          {
            f_property =
              Printf.sprintf "table %s: action %s reachable" tbl.Ast.t_name action;
            f_verdict = (if hit then Holds else Violated);
            f_detail =
              (if hit then "exercised on some explored path"
               else "dead action: never selected with the installed entries");
            f_witness = None;
          })
        tbl.Ast.t_actions)
    program.Ast.p_tables

let egress_port_bounded ~ports ?(allowed = []) program runtime =
  let run = Sexec.explore program runtime in
  let offending = ref None in
  List.iter
    (fun p ->
      if !offending = None && p.Sexec.p_ending = Sexec.Forwarded then
        match Sym.is_const p.Sexec.p_egress with
        | Some v ->
            let port = Value.to_int v in
            if port >= ports && not (List.mem port allowed) then
              (match Solver.solve p.Sexec.p_conds with
              | Solver.Sat model -> offending := Some (port, p, Some model)
              | Solver.Unsat -> ()
              | Solver.Unknown -> offending := Some (port, p, None))
        | None ->
            (* symbolic egress (e.g. reflected ingress port): cannot bound
               it statically *)
            ())
    run.Sexec.paths;
  match !offending with
  | Some (port, p, model) ->
      {
        f_property = Printf.sprintf "egress ports stay below %d" ports;
        f_verdict = (if model = None then Unknown else Violated);
        f_detail = Printf.sprintf "a path forwards to non-physical port %d" port;
        f_witness = Option.map (fun m -> witness_of p m) model;
      }
  | None ->
      {
        f_property = Printf.sprintf "egress ports stay below %d" ports;
        f_verdict = Holds;
        f_detail = "every constant egress port is physical (or allow-listed)";
        f_witness = None;
      }

let no_invalid_header_reads program runtime =
  let run = Sexec.explore program runtime in
  let offending = ref None and unresolved = ref 0 in
  List.iter
    (fun p ->
      if !offending = None && p.Sexec.p_invalid_reads <> [] then
        match Solver.solve p.Sexec.p_conds with
        | Solver.Sat model -> offending := Some (p, model)
        | Solver.Unsat -> ()
        | Solver.Unknown -> incr unresolved)
    run.Sexec.paths;
  match !offending with
  | Some (p, model) ->
      let h, f = List.hd p.Sexec.p_invalid_reads in
      {
        f_property = "no reads of invalid header fields";
        f_verdict = Violated;
        f_detail =
          Printf.sprintf "%s.%s is read on a path where %s was never parsed (reads 0)" h f h;
        f_witness = Some (witness_of p model);
      }
  | None when !unresolved > 0 ->
      {
        f_property = "no reads of invalid header fields";
        f_verdict = Unknown;
        f_detail =
          Printf.sprintf
            "%d path(s) reading an invalid header unresolved within the search budget"
            !unresolved;
        f_witness = None;
      }
  | None ->
      {
        f_property = "no reads of invalid header fields";
        f_verdict = Holds;
        f_detail = "every field read happens under the header's validity";
        f_witness = None;
      }

let run_all program runtime =
  let has_ipv4 = Ast.find_header program "ipv4" <> None in
  assertions program runtime
  @ [ rejected_are_dropped program runtime ]
  @ (if has_ipv4 then
       [
         forward_requires_header ~header:"ipv4" program runtime;
         ttl_decremented program runtime;
       ]
     else [])
  @ [ no_invalid_header_reads program runtime ]
  @ action_coverage program runtime
