type result = Forwarded of int * Bitutil.Bitstring.t | Dropped of string

type observation = {
  result : result;
  parser : Parse.outcome;
  tables : (string * bool * string) list;
  counters : (string * int) list;
  failed_asserts : string list;
}

(* ------------------------------------------------------------------ *)
(* Tree engine: the direct AST walk                                    *)
(* ------------------------------------------------------------------ *)

let process_tree ?regs program runtime ~ingress_port bits =
  let env = Env.create program in
  let counters = Hashtbl.create 4 in
  let counter_order = ref [] in
  let tables = ref [] in
  let failed_asserts = ref [] in
  let on_count c =
    match Hashtbl.find_opt counters c with
    | None ->
        counter_order := c :: !counter_order;
        Hashtbl.replace counters c 1
    | Some n -> Hashtbl.replace counters c (n + 1)
  in
  let on_assert ok msg = if not ok then failed_asserts := msg :: !failed_asserts in
  let on_table ~table ~hit ~action = tables := (table, hit, action) :: !tables in
  let ctx = Exec.make_ctx ~on_count ~on_assert ~on_table ?regs ~env ~runtime () in
  Env.set_std env Ast.Ingress_port (Value.of_int ~width:9 ingress_port);
  let finish result parser =
    {
      result;
      parser;
      tables = List.rev !tables;
      (* first-increment order: [counter_order] accumulates newest-first,
         so the reversing map restores it *)
      counters = List.rev_map (fun c -> (c, Hashtbl.find counters c)) !counter_order;
      failed_asserts = List.rev !failed_asserts;
    }
  in
  let parser_outcome = Parse.run ctx bits in
  if not parser_outcome.Parse.accepted then
    finish (Dropped ("parser:" ^ Stdmeta.error_name parser_outcome.Parse.error)) parser_outcome
  else begin
    Exec.set_phase ctx Exec.Ingress;
    Exec.run_stmts ctx program.Ast.p_ingress;
    if Env.dropped env then finish (Dropped "ingress") parser_outcome
    else begin
      Exec.set_phase ctx Exec.Egress;
      Exec.run_stmts ctx program.Ast.p_egress;
      if Env.dropped env then finish (Dropped "egress") parser_outcome
      else begin
        let port = Value.to_int (Env.get_std env Ast.Egress_spec) in
        let out = Deparse.run env in
        finish (Forwarded (port, out)) parser_outcome
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Staged engine: compiled closures, cached per (program, runtime)     *)
(* ------------------------------------------------------------------ *)

type sacc = {
  counts : int array;  (* per counter id *)
  corder : int array;  (* counter ids in first-increment order *)
  mutable ncnt : int;
  mutable s_tables : (string * bool * string) list;  (* newest first *)
  mutable s_asserts : string list;  (* newest first *)
}

type scell = { si : Compilecore.inst; acc : sacc }

let make_scell cp runtime =
  let nc = Compilecore.n_counters cp in
  let acc =
    {
      counts = Array.make (max 1 nc) 0;
      corder = Array.make (max 1 nc) 0;
      ncnt = 0;
      s_tables = [];
      s_asserts = [];
    }
  in
  let on_count id =
    if acc.counts.(id) = 0 then begin
      acc.corder.(acc.ncnt) <- id;
      acc.ncnt <- acc.ncnt + 1
    end;
    acc.counts.(id) <- acc.counts.(id) + 1
  in
  let on_assert ok id = if not ok then acc.s_asserts <- Compilecore.assert_msg cp id :: acc.s_asserts in
  let on_table id hit action =
    acc.s_tables <- (Compilecore.table_name cp id, hit, action) :: acc.s_tables
  in
  let si = Compilecore.instantiate ~on_count ~on_assert ~on_table ~track_states:true cp ~runtime in
  { si; acc }

(* Instances are cached per domain keyed on (program, runtime) physical
   identity — the common shapes (a harness hammering one deployment, a
   fuzzer alternating a handful) hit the head of the list. *)
let max_cells = 32

let cell_cache : (Ast.program * Runtime.t * scell) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let get_cell program runtime =
  let cache = Domain.DLS.get cell_cache in
  match !cache with
  | (p, r, cell) :: _ when p == program && r == runtime -> cell
  | entries -> (
      match List.find_opt (fun (p, r, _) -> p == program && r == runtime) entries with
      | Some ((_, _, cell) as hit) ->
          cache := hit :: List.filter (fun (p, r, _) -> not (p == program && r == runtime)) entries;
          cell
      | None ->
          let cell = make_scell (Compilecore.spec_compiled program) runtime in
          cache := take max_cells ((program, runtime, cell) :: entries);
          cell)

let process_staged ?regs program runtime ~ingress_port bits =
  let cp = Compilecore.spec_compiled program in
  let { si = st; acc } = get_cell program runtime in
  (* self-healing: clear accumulators up front so a previous call that
     raised cannot leak observations into this one *)
  acc.ncnt <- 0;
  Array.fill acc.counts 0 (Array.length acc.counts) 0;
  acc.s_tables <- [];
  acc.s_asserts <- [];
  Compilecore.reset st;
  (match regs with
  | Some r -> Compilecore.set_regs st r
  | None ->
      (* match the tree default: a fresh zeroed store per call *)
      if Compilecore.has_registers cp then Compilecore.set_regs st (Regstate.create program));
  Compilecore.set_ingress_port st ingress_port;
  let finish result parser =
    let counters = ref [] in
    for i = acc.ncnt - 1 downto 0 do
      let id = acc.corder.(i) in
      counters := (Compilecore.counter_name cp id, acc.counts.(id)) :: !counters
    done;
    {
      result;
      parser;
      tables = List.rev acc.s_tables;
      counters = !counters;
      failed_asserts = List.rev acc.s_asserts;
    }
  in
  Compilecore.run_parser st bits;
  let parser_outcome = Compilecore.parse_outcome st in
  if not parser_outcome.Parse.accepted then
    finish (Dropped ("parser:" ^ Stdmeta.error_name parser_outcome.Parse.error)) parser_outcome
  else begin
    Compilecore.run_ingress st;
    if Compilecore.dropped st then finish (Dropped "ingress") parser_outcome
    else begin
      Compilecore.run_egress st;
      if Compilecore.dropped st then finish (Dropped "egress") parser_outcome
      else begin
        let port = Compilecore.egress_port st in
        let out = Compilecore.deparse st in
        finish (Forwarded (port, out)) parser_outcome
      end
    end
  end

let process ?(engine = `Staged) ?regs program runtime ~ingress_port bits =
  match engine with
  | `Tree -> process_tree ?regs program runtime ~ingress_port bits
  | `Staged -> process_staged ?regs program runtime ~ingress_port bits

let forward program runtime ~ingress_port bits =
  match (process program runtime ~ingress_port bits).result with
  | Forwarded (port, out) -> Some (port, out)
  | Dropped _ -> None
