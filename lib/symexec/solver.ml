module Value = P4ir.Value
module Ast = P4ir.Ast
module Prng = Bitutil.Prng

type model = (int, Value.t) Hashtbl.t

type result = Sat of model | Unsat | Unknown

let model_value m id =
  match Hashtbl.find_opt m id with Some v -> v | None -> Value.zero 1

let holds m conj =
  List.for_all
    (fun c ->
      let lookup id =
        match Hashtbl.find_opt m id with
        | Some v -> v
        | None ->
            (* unconstrained variables read as zero of their true width; we
               recover the width from the expression's own var list *)
            let w =
              match List.find_opt (fun (v : Sym.var) -> v.Sym.v_id = id) (Sym.vars c) with
              | Some v -> v.Sym.v_width
              | None -> 1
            in
            Value.zero w
      in
      Value.to_bool (Sym.eval lookup c))
    conj

(* ------------------------------------------------------------------ *)
(* Candidate mining                                                    *)
(* ------------------------------------------------------------------ *)

(* For every variable, gather values likely to matter: constants compared
   against it (directly, under masks, shifts or slices), neighbours of
   those constants, and the extremes. *)
let mine_candidates constraints =
  let candidates : (int, (int64, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let widths : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let add (v : Sym.var) value =
    Hashtbl.replace widths v.Sym.v_id v.Sym.v_width;
    let mask =
      if v.Sym.v_width >= 64 then -1L else Int64.sub (Int64.shift_left 1L v.Sym.v_width) 1L
    in
    let tbl =
      match Hashtbl.find_opt candidates v.Sym.v_id with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.add candidates v.Sym.v_id t;
          t
    in
    Hashtbl.replace tbl (Int64.logand value mask) ()
  in
  let add_with_neighbours v value =
    add v value;
    add v (Int64.add value 1L);
    add v (Int64.sub value 1L)
  in
  (* match [expr ~ const] shapes, attributing candidate values to the
     variable underneath the expression *)
  let rec attribute expr (value : int64) =
    match (expr : Sym.t) with
    | Sym.Var v -> add_with_neighbours v value
    | Sym.Bin (Ast.BAnd, e, Sym.Const m) | Sym.Bin (Ast.BAnd, Sym.Const m, e) ->
        (* (e & m) ~ value: e = value on the masked bits; fill rest with 0
           and with 1s *)
        attribute e value;
        attribute e (Int64.logor value (Int64.lognot (Value.to_int64 m)))
    | Sym.Bin (Ast.Shr, e, Sym.Const s) ->
        (* (e >> s) ~ value: e = value << s (LPM shape) *)
        let s = Value.to_int s in
        if s < 64 then begin
          attribute e (Int64.shift_left value s);
          attribute e (Int64.logor (Int64.shift_left value s) (Int64.sub (Int64.shift_left 1L (min s 63)) 1L))
        end
    | Sym.Bin (Ast.Shl, e, Sym.Const s) ->
        let s = Value.to_int s in
        if s < 64 then attribute e (Int64.shift_right_logical value s)
    | Sym.Bin (Ast.Add, e, Sym.Const c) -> attribute e (Int64.sub value (Value.to_int64 c))
    | Sym.Bin (Ast.Sub, e, Sym.Const c) -> attribute e (Int64.add value (Value.to_int64 c))
    | Sym.Bin (Ast.BXor, e, Sym.Const c) -> attribute e (Int64.logxor value (Value.to_int64 c))
    | Sym.Slice (e, _, lsb) -> attribute e (Int64.shift_left value lsb)
    | Sym.Concat (a, b) ->
        let wb = Sym.width b in
        attribute a (Int64.shift_right_logical value wb);
        attribute b value
    | Sym.Const _ | Sym.Bin _ | Sym.Un _ -> List.iter (fun v -> add_with_neighbours v value) (Sym.vars expr)
  in
  let rec walk (c : Sym.t) =
    match c with
    | Sym.Bin ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), e, Sym.Const v) ->
        attribute e (Value.to_int64 v)
    | Sym.Bin ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), Sym.Const v, e) ->
        attribute e (Value.to_int64 v)
    | Sym.Bin (_, a, b) | Sym.Concat (a, b) ->
        walk a;
        walk b
    | Sym.Un (_, a) | Sym.Slice (a, _, _) -> walk a
    | Sym.Var _ | Sym.Const _ -> ()
  in
  List.iter walk constraints;
  (* ensure every variable of every constraint has a slot plus extremes *)
  List.iter
    (fun c ->
      List.iter
        (fun (v : Sym.var) ->
          add v 0L;
          add v 1L;
          add v (-1L))
        (Sym.vars c))
    constraints;
  (candidates, widths)

(* ------------------------------------------------------------------ *)
(* Cheap UNSAT detection: known-bits propagation                       *)
(* ------------------------------------------------------------------ *)

(* Path conditions routinely contain the same information expressed two
   ways (a select on [dst >> 16] and a table entry matching [dst & mask]):
   branch negation then creates contradictions no amount of search can
   satisfy. We collect per-variable known bits from positive equality
   facts and refute any literal those bits determine to be false. *)

let full_mask w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* (var, mask, value): the bits of [var] selected by [mask] equal [value].
   Returns None when the expression is not an equality shape we track;
   Some None flags a self-contradictory fact (constraint is UNSAT). *)
let eq_fact e (c : Value.t) =
  let cv = Value.to_int64 c in
  match (e : Sym.t) with
  | Sym.Var v ->
      let m = full_mask v.Sym.v_width in
      if Int64.logand cv (Int64.lognot m) <> 0L then Some None
      else Some (Some (v.Sym.v_id, m, Int64.logand cv m))
  | Sym.Bin (Ast.BAnd, Sym.Var v, Sym.Const m) | Sym.Bin (Ast.BAnd, Sym.Const m, Sym.Var v)
    ->
      let m = Int64.logand (Value.to_int64 m) (full_mask v.Sym.v_width) in
      if Int64.logand cv (Int64.lognot m) <> 0L then Some None
      else Some (Some (v.Sym.v_id, m, Int64.logand cv m))
  | Sym.Bin (Ast.Shr, Sym.Var v, Sym.Const s) ->
      let s = Value.to_int s in
      if s >= 64 then None
      else begin
        let w = v.Sym.v_width in
        let m = Int64.logand (Int64.shift_left (-1L) s) (full_mask w) in
        let shifted = Int64.shift_left cv s in
        if Int64.logand shifted (Int64.lognot m) <> 0L || Int64.shift_right_logical shifted s <> cv
        then Some None
        else Some (Some (v.Sym.v_id, m, Int64.logand shifted m))
      end
  | _ -> None

let rec conjuncts (e : Sym.t) =
  match e with
  | Sym.Bin (Ast.LAnd, a, b) -> conjuncts a @ conjuncts b
  | _ -> [ e ]

(* Merge every positive equality fact into per-variable known bits:
   var id -> (mask of known bits, their values). [None] flags facts that
   contradict each other (the constraint set is UNSAT). *)
let known_bits flat =
  let known : (int, int64 * int64) Hashtbl.t = Hashtbl.create 8 in
  let contradiction = ref false in
  let add_fact (id, m, v) =
    let km, kv = match Hashtbl.find_opt known id with Some x -> x | None -> (0L, 0L) in
    let overlap = Int64.logand km m in
    if Int64.logand kv overlap <> Int64.logand v overlap then contradiction := true
    else Hashtbl.replace known id (Int64.logor km m, Int64.logor kv (Int64.logand v m))
  in
  List.iter
    (fun lit ->
      match lit with
      | Sym.Bin (Ast.Eq, e, Sym.Const c) | Sym.Bin (Ast.Eq, Sym.Const c, e) -> (
          match eq_fact e c with
          | Some (Some fact) -> add_fact fact
          | Some None -> contradiction := true
          | None -> ())
      | _ -> ())
    flat;
  if !contradiction then None else Some known

(* Unsigned bounds: a literal [v ⋈ c], or its negation, confines [v] to
   an interval. Literals about one variable whose intervals do not meet
   refute the conjunction: a TTL asserted positive on a path that
   already required it above 1. *)
let bounds_conflict flat =
  let bounds : (int, int64 * int64) Hashtbl.t = Hashtbl.create 8 in
  let below a b = Int64.unsigned_compare a b < 0 in
  (* narrow [v] to [lo, hi]: true when nothing is left *)
  let within (v : Sym.var) lo hi =
    let lo0, hi0 =
      Option.value (Hashtbl.find_opt bounds v.Sym.v_id) ~default:(0L, full_mask v.Sym.v_width)
    in
    let lo = if below lo0 lo then lo else lo0 and hi = if below hi hi0 then hi else hi0 in
    Hashtbl.replace bounds v.Sym.v_id (lo, hi);
    below hi lo
  in
  let fact (op : Ast.binop) v c =
    match op with
    | Ast.Eq -> within v c c
    | Ast.Lt -> c = 0L || within v 0L (Int64.pred c)
    | Ast.Le -> within v 0L c
    | Ast.Gt -> c = -1L || within v (Int64.succ c) (-1L)
    | Ast.Ge -> within v c (-1L)
    | _ -> false
  in
  (* the negation of an order literal is an order literal; any other
     negation ([!(v == c)]) bounds nothing *)
  let negated (op : Ast.binop) : Ast.binop =
    match op with
    | Ast.Lt -> Ast.Ge
    | Ast.Le -> Ast.Gt
    | Ast.Gt -> Ast.Le
    | Ast.Ge -> Ast.Lt
    | _ -> Ast.Neq
  in
  List.exists
    (fun lit ->
      match lit with
      | Sym.Bin (op, Sym.Var v, Sym.Const c) -> fact op v (Value.to_int64 c)
      | Sym.Un (Ast.LNot, Sym.Bin (op, Sym.Var v, Sym.Const c)) ->
          fact (negated op) v (Value.to_int64 c)
      | _ -> false)
    flat

let quick_unsat constraints =
  let flat = List.concat_map conjuncts constraints in
  (* phase 1: merge positive facts into known bits *)
  match known_bits flat with
  | None -> true
  | Some _ when bounds_conflict flat -> true
  | Some known -> begin
    (* phase 2: is the truth of an equality shape determined by the known
       bits? *)
    let determined e c =
      match
        match (e, c) with
        | e, c -> eq_fact e c
      with
      | Some (Some (id, m, v)) -> (
          match Hashtbl.find_opt known id with
          | Some (km, kv) when Int64.logand km m = m ->
              Some (Int64.logand kv m = v)
          | Some _ | None -> None)
      | Some None -> Some false
      | None -> None
    in
    let rec definitely_true (lit : Sym.t) =
      match lit with
      | Sym.Bin (Ast.Eq, e, Sym.Const c) | Sym.Bin (Ast.Eq, Sym.Const c, e) ->
          determined e c = Some true
      | Sym.Bin (Ast.LAnd, a, b) -> definitely_true a && definitely_true b
      | _ -> false
    in
    List.exists
      (fun lit ->
        match lit with
        | Sym.Bin (Ast.Eq, e, Sym.Const c) | Sym.Bin (Ast.Eq, Sym.Const c, e) ->
            determined e c = Some false
        | Sym.Un (Ast.LNot, inner) -> definitely_true inner
        | _ -> false)
      flat
  end

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let solve ?(seed = 0x5EED) ?(max_tries = 20000) ?(use_mining = true) constraints =
  let constraints = List.filter (fun c -> c <> Sym.Const Value.tru) constraints in
  if List.exists (fun c -> c = Sym.Const Value.fls) constraints then Unsat
  else if constraints = [] then Sat (Hashtbl.create 1)
  else if quick_unsat constraints then Unsat
  else begin
    let candidates, widths = mine_candidates constraints in
    (* ablation mode: forget the mined values, keep only the extremes *)
    if not use_mining then
      Hashtbl.iter
        (fun id tbl ->
          Hashtbl.reset tbl;
          let w = Hashtbl.find widths id in
          let mask = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L in
          List.iter (fun v -> Hashtbl.replace tbl (Int64.logand v mask) ()) [ 0L; 1L; -1L ])
        candidates;
    (* bit-blasted mask solving: conjunctions of masked equality facts
       about one variable (a select on [dst >> 16] plus an LPM entry on
       [dst & mask]) are solved directly by merging their known bits and
       synthesizing candidates that satisfy every fact at once, instead
       of hoping the Cartesian walk combines the right per-literal
       mines *)
    if use_mining then begin
      match known_bits (List.concat_map conjuncts constraints) with
      | None -> ()
      | Some known ->
          Hashtbl.iter
            (fun id (m, v) ->
              match (Hashtbl.find_opt candidates id, Hashtbl.find_opt widths id) with
              | Some tbl, Some w ->
                  let fm = full_mask w in
                  (* the unknown bits as zeros, and as ones *)
                  Hashtbl.replace tbl (Int64.logand v fm) ();
                  Hashtbl.replace tbl (Int64.logand (Int64.logor v (Int64.lognot m)) fm) ()
              | _, _ -> ())
            known
    end;
    let var_ids =
      Hashtbl.fold (fun id _ acc -> id :: acc) widths [] |> List.sort compare |> Array.of_list
    in
    let n = Array.length var_ids in
    let var_widths = Array.map (Hashtbl.find widths) var_ids in
    let cands =
      Array.map
        (fun id ->
          Hashtbl.fold (fun v () acc -> v :: acc) (Hashtbl.find candidates id) []
          |> Array.of_list)
        var_ids
    in
    (* The dense model: slot [d] holds the value of [var_ids.(d)]. Every
       candidate and every random draw is already masked to its
       variable's width, as the compiled checks require. Each constraint
       is compiled once and filed under the depth of its last variable,
       so both phases test it as soon as that variable is assigned. *)
    let model = Array.make n 0L in
    let slot =
      let slots = Hashtbl.create n in
      Array.iteri (fun d id -> Hashtbl.replace slots id d) var_ids;
      Hashtbl.find slots
    in
    let ground = ref [] and filed = Array.make n [] in
    List.iter
      (fun c ->
        let check = Sym.compile slot c in
        match Sym.vars c with
        | [] -> ground := check :: !ground
        | vs ->
            let d = List.fold_left (fun d (v : Sym.var) -> max d (slot v.Sym.v_id)) 0 vs in
            filed.(d) <- check :: filed.(d))
      (List.rev constraints);
    let filed = Array.map Array.of_list filed in
    let holds_at d =
      let checks = filed.(d) in
      let rec go k = k = Array.length checks || (checks.(k) model && go (k + 1)) in
      go 0
    in
    (* a found model, rebuilt as a [model] and re-verified by [holds]
       (the [Sym.eval] reference) before it is returned *)
    let found () =
      let m = Hashtbl.create 16 in
      Array.iteri
        (fun d id -> Hashtbl.replace m id (Value.make ~width:var_widths.(d) model.(d)))
        var_ids;
      if not (holds m constraints) then
        failwith "Solver.solve: a compiled check disagrees with Sym.eval";
      Sat m
    in
    let prng = Prng.create seed in
    (* Phase 1: when the mined candidate space is small enough, walk the
       whole Cartesian product systematically — deterministic and complete
       over the mined values (conjunctions over several constrained
       variables are found immediately instead of waiting for a lucky
       joint sample). A constraint that fails on a partial assignment
       fails on every completion of it, so pruning there skips only
       subtrees without a solution: the first model found is the one a
       walk of every leaf finds. *)
    let product =
      Array.fold_left
        (fun acc arr -> if acc > max_tries then acc else acc * max 1 (Array.length arr))
        1 cands
    in
    let rec assign d =
      d = n
      ||
      let arr = cands.(d) in
      let rec try_cand j =
        j < Array.length arr
        && begin
             model.(d) <- arr.(j);
             (holds_at d && assign (d + 1)) || try_cand (j + 1)
           end
      in
      try_cand 0
    in
    (* Phase 2: randomized sampling mixing mined candidates with fully
       random values (covers constraints whose solutions are not mined).
       A try draws once per variable, in slot order, and stops at the
       first failing constraint; it then skips the draws it did not
       make, so every try starts from the state a full try leaves. *)
    let try_once i =
      let rec draw d =
        d = n
        ||
        let arr = cands.(d) in
        model.(d) <-
          (if Array.length arr > 0 && (i mod 4 <> 3 || Array.length arr > 16) then
             Prng.choose prng arr
           else Prng.bits prng ~width:var_widths.(d));
        if holds_at d then draw (d + 1)
        else begin
          Prng.advance prng (n - d - 1);
          false
        end
      in
      draw 0
    in
    let rec search i =
      if i >= max_tries then Unknown
      else if try_once i then found ()
      else search (i + 1)
    in
    (* constraints without variables are decided once, before either
       phase: a false one fails every try *)
    if not (List.for_all (fun check -> check model) !ground) then Unknown
    else if product <= max_tries && assign 0 then found ()
    else search 0
  end
