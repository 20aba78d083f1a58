module Ast = P4ir.Ast
module Value = P4ir.Value
module Stdmeta = P4ir.Stdmeta
module Bitstring = Bitutil.Bitstring

type expected = Forward of int | Drop of string

type vector = {
  v_path : int;
  v_descr : string;
  v_ingress_port : int;
  v_packet : Bitstring.t;
  v_expected : expected;
  v_state_dependent : bool;
}

type stats = {
  tg_paths : int;
  tg_solved : int;
  tg_unsat : int;
  tg_unknown : int;
  tg_truncated : bool;
}

type report = { tg_program : string; tg_vectors : vector list; tg_stats : stats }

let coverage_complete r =
  (not r.tg_stats.tg_truncated) && r.tg_stats.tg_solved = r.tg_stats.tg_paths

(* ------------------------------------------------------------------ *)
(* Path description and expectation                                    *)
(* ------------------------------------------------------------------ *)

let ending_str (e : Sexec.ending) =
  match e with
  | Sexec.Rejected err -> "rejected(" ^ Stdmeta.error_name err ^ ")"
  | Sexec.Dropped where -> "dropped(" ^ where ^ ")"
  | Sexec.Forwarded -> "forwarded"

let descr (p : Sexec.path) =
  let extracts = String.concat ">" (List.map fst p.Sexec.p_extracts) in
  let tables =
    String.concat "," (List.map (fun (t, a) -> t ^ ":" ^ a) p.Sexec.p_tables)
  in
  String.concat " | "
    (List.filter
       (fun s -> s <> "")
       [
         (if extracts = "" then "(no extracts)" else extracts);
         tables;
         ending_str p.Sexec.p_ending;
       ])

(* evaluate a symbolic expression under a model, defaulting unassigned
   variables to zero of their true width (the same convention the
   interpreter applies to uninitialized state) *)
let eval_under model e =
  let widths = Hashtbl.create 4 in
  List.iter (fun (v : Sym.var) -> Hashtbl.replace widths v.Sym.v_id v.Sym.v_width) (Sym.vars e);
  Sym.eval
    (fun id ->
      match Solver.model_value model id with
      | v when Value.width v = 1 && Hashtbl.mem widths id ->
          let w = Hashtbl.find widths id in
          if Value.width v = w then v else Value.zero w
      | v -> v)
    e

let reg_prefixed (v : Sym.var) =
  String.length v.Sym.v_name >= 4 && String.sub v.Sym.v_name 0 4 = "reg:"

let state_dependent (p : Sexec.path) =
  let in_expr e = List.exists reg_prefixed (Sym.vars e) in
  List.exists in_expr p.Sexec.p_conds
  || (p.Sexec.p_ending = Sexec.Forwarded && in_expr p.Sexec.p_egress)

(* ------------------------------------------------------------------ *)
(* Checksum-reject witnesses                                           *)
(* ------------------------------------------------------------------ *)

(* A path that ends [Rejected checksum_error] constrains nothing about
   the checksum field itself (verification is modelled as a free
   boolean), so the solver may accidentally render a packet whose
   checksum happens to verify — which would drive the device down the
   ok-branch instead. Deterministically corrupt the field in that case.
   Skipped when the path condition mentions the checksum variable (the
   program branched on the raw field; overwriting it would break the
   path condition). *)
let ensure_invalid_checksum (p : Sexec.path) packet =
  if p.Sexec.p_ending <> Sexec.Rejected Stdmeta.error_checksum then packet
  else
    match List.assoc_opt "ipv4" p.Sexec.p_extracts with
    | None -> packet
  | Some fieldvars -> (
      let ipv4_off =
        let rec go acc = function
          | [] -> acc
          | ("ipv4", _) :: _ -> acc
          | (_, fvs) :: rest ->
              go (acc + List.fold_left (fun a (_, (v : Sym.var)) -> a + v.Sym.v_width) 0 fvs) rest
        in
        go 0 p.Sexec.p_extracts
      in
      let hdr_len =
        List.fold_left (fun a (_, (v : Sym.var)) -> a + v.Sym.v_width) 0 fieldvars
      in
      let rec field_off acc = function
        | [] -> None
        | (f, (v : Sym.var)) :: rest ->
            if String.equal f "checksum" then Some (acc, v)
            else field_off (acc + v.Sym.v_width) rest
      in
      match field_off 0 fieldvars with
      | None -> packet
      | Some (coff, cvar) ->
          let constrained =
            List.exists
              (fun c ->
                List.exists (fun (v : Sym.var) -> v.Sym.v_id = cvar.Sym.v_id) (Sym.vars c))
              p.Sexec.p_conds
          in
          if constrained then packet
          else begin
            let hdr = Bitstring.sub packet ~off:ipv4_off ~len:hdr_len in
            let zeroed = Bitstring.set_int64 hdr ~off:coff ~width:16 0L in
            let correct = Bitutil.Checksum.checksum_bits zeroed in
            let stored = Bitstring.extract packet ~off:(ipv4_off + coff) ~width:16 in
            if stored <> Int64.of_int correct then packet
            else
              Bitstring.set_int64 packet ~off:(ipv4_off + coff) ~width:16
                (Int64.of_int (correct lxor 0x5555))
          end)

(* ------------------------------------------------------------------ *)
(* Adversarial witness hardening                                       *)
(* ------------------------------------------------------------------ *)

(* A witness for a drop/reject path leaves many packet bits free, and a
   solver that picks them arbitrarily will usually miss every table — so
   a toolchain bug that falls through the drop (e.g. reject compiled as
   accept) still ends in a drop and stays invisible. Harden the witness:
   mine table-hit conjuncts from sibling *forwarded* paths and re-solve
   with them added. Only conjuncts over packet variables this path
   extracts but never constrains are borrowed, so the path condition —
   and hence the expected observation — is untouched; the extra
   conjuncts merely pick the most incriminating witness among the
   packets that cover the path. *)

let var_ids_of conds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter (fun (v : Sym.var) -> Hashtbl.replace tbl v.Sym.v_id ()) (Sym.vars c))
    conds;
  tbl

let extract_var_ids (p : Sexec.path) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, fvs) ->
      List.iter (fun (_, (v : Sym.var)) -> Hashtbl.replace tbl v.Sym.v_id ()) fvs)
    p.Sexec.p_extracts;
  tbl

(* at most this many alternative hardenings are attempted per path; each
   costs one extra solver call on failure *)
let max_hardenings = 4

let hardenings ~forwarded (p : Sexec.path) =
  match p.Sexec.p_ending with
  | Sexec.Forwarded -> []
  | Sexec.Rejected _ | Sexec.Dropped _ ->
      let ex = extract_var_ids p in
      let constrained = var_ids_of p.Sexec.p_conds in
      let borrowable c =
        match Sym.vars c with
        | [] -> false
        | vs ->
            List.for_all (fun (v : Sym.var) -> Hashtbl.mem ex v.Sym.v_id) vs
            && not
                 (List.exists (fun (v : Sym.var) -> Hashtbl.mem constrained v.Sym.v_id) vs)
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | h :: rest -> h :: take (n - 1) rest
      in
      take max_hardenings
        (List.filter_map
           (fun (f : Sexec.path) ->
             match List.filter borrowable f.Sexec.p_conds with
             | [] -> None
             | usable -> Some usable)
           forwarded)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

type solved = Vec of vector | Unsat_path | Unknown_path

let generate ?seed ?max_paths ?(jobs = 1) ?ingress_port (program : Ast.program) runtime =
  let run = Sexec.explore ?max_paths program runtime in
  let drop_const = Sym.of_int ~width:9 Stdmeta.drop_port in
  (* conjuncts are built here, sequentially: solving workers never
     construct terms, so the domain-local intern tables stay single-writer *)
  let forwarded =
    List.filter (fun (p : Sexec.path) -> p.Sexec.p_ending = Sexec.Forwarded) run.Sexec.paths
  in
  let prepared =
    Array.of_list
      (List.map
         (fun (p : Sexec.path) ->
           let conds = p.Sexec.p_conds in
           let conds =
             match ingress_port with
             | None -> conds
             | Some port ->
                 Sym.bin Ast.Eq
                   (Sym.Var p.Sexec.p_ingress_port)
                   (Sym.of_int ~width:9 port)
                 :: conds
           in
           let conds =
             (* a forwarded path with symbolic egress must not pick the
                drop port, or the concrete packet's observed fate would
                be a drop *)
             if p.Sexec.p_ending = Sexec.Forwarded && Sym.is_const p.Sexec.p_egress = None
             then Sym.bin Ast.Neq p.Sexec.p_egress drop_const :: conds
             else conds
           in
           (p, conds, hardenings ~forwarded p))
         run.Sexec.paths)
  in
  let solve_one i ((p : Sexec.path), conds, hards) =
    let result =
      (* hardened attempts first (deterministic order); the plain path
         condition is the fallback, so hardening can only refine the
         witness, never lose a path *)
      let rec attempt = function
        | [] -> Solver.solve ?seed conds
        | h :: rest -> (
            match Solver.solve ?seed (h @ conds) with
            | Solver.Sat _ as sat -> sat
            | Solver.Unsat | Solver.Unknown -> attempt rest)
      in
      attempt hards
    in
    match result with
    | Solver.Unsat -> Unsat_path
    | Solver.Unknown -> Unknown_path
    | Solver.Sat model ->
        let packet = ensure_invalid_checksum p (Sexec.witness_bits p model) in
        let port =
          match ingress_port with
          | Some port -> port
          | None ->
              Value.to_int (Solver.model_value model p.Sexec.p_ingress_port.Sym.v_id)
        in
        let expected =
          match p.Sexec.p_ending with
          | Sexec.Rejected err -> Drop ("parser:" ^ Stdmeta.error_name err)
          | Sexec.Dropped where -> Drop where
          | Sexec.Forwarded -> Forward (Value.to_int (eval_under model p.Sexec.p_egress))
        in
        Vec
          {
            v_path = i + 1;
            v_descr = descr p;
            v_ingress_port = port;
            v_packet = packet;
            v_expected = expected;
            v_state_dependent = state_dependent p;
          }
  in
  let results =
    if jobs <= 1 || Array.length prepared < 2 then Array.mapi solve_one prepared
    else
      (* results land at their input index, so the vector order is the
         exploration order for every jobs value *)
      Par.Pool.with_pool ~jobs (fun pool ->
          Par.Pool.map_chunks pool ~chunk:1 (fun ~worker:_ i pc -> solve_one i pc) prepared)
  in
  let solved = ref 0 and unsat = ref 0 and unknown = ref 0 in
  let vectors =
    Array.to_list results
    |> List.filter_map (function
         | Vec v ->
             incr solved;
             Some v
         | Unsat_path ->
             incr unsat;
             None
         | Unknown_path ->
             incr unknown;
             None)
  in
  {
    tg_program = program.Ast.p_name;
    tg_vectors = vectors;
    tg_stats =
      {
        tg_paths = Array.length prepared;
        tg_solved = !solved;
        tg_unsat = !unsat;
        tg_unknown = !unknown;
        tg_truncated = run.Sexec.truncated;
      };
  }

let packets r = List.map (fun v -> v.v_packet) r.tg_vectors

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let expected_str = function
  | Forward port -> Printf.sprintf "forward to port %d" port
  | Drop reason -> Printf.sprintf "drop (%s)" reason

let render r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "testgen: %s\n" r.tg_program;
  let s = r.tg_stats in
  pf "  paths: %d enumerated, %d solved, %d unsat, %d unknown%s\n" s.tg_paths s.tg_solved
    s.tg_unsat s.tg_unknown
    (if s.tg_truncated then " (truncated)" else "");
  let denom = s.tg_paths - s.tg_unsat in
  pf "  coverage: %d/%d satisfiable paths (%d%%)\n" s.tg_solved (max denom 0)
    (if denom <= 0 then 100 else 100 * s.tg_solved / denom);
  List.iter
    (fun v ->
      pf "  [%d] %dB @port %d expect %s%s\n" v.v_path
        (Bitstring.byte_length v.v_packet)
        v.v_ingress_port (expected_str v.v_expected)
        (if v.v_state_dependent then " (state-dependent)" else "");
      pf "      %s\n" v.v_descr)
    r.tg_vectors;
  Buffer.contents b
