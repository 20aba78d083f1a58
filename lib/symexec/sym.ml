module Value = P4ir.Value
module Ast = P4ir.Ast

type var = { v_id : int; v_name : string; v_width : int }

type t =
  | Const of Value.t
  | Var of var
  | Bin of Ast.binop * t * t
  | Un of Ast.unop * t
  | Slice of t * int * int
  | Concat of t * t

(* ---------------- hash-consing ----------------

   The smart constructors intern every node they build in a domain-local
   table, so structurally equal subterms constructed during one symbolic
   exploration share one heap node. A lookup compares candidate children
   with physical equality: children built by the smart constructors are
   themselves interned, so structural equality of a candidate collapses
   to physical equality of its parts — the probe is a bucket scan that
   allocates nothing on a hit. Fresh variables are globally unique and
   never interned.

   The table is scoped to one exploration: every exploration mints fresh
   variables, so its terms can never be shared with the next one anyway.
   {!new_session} (called by [Sexec.explore]) resets the table instead
   of letting it grow without bound across explorations. Terms that
   outlive a reset stay valid — they merely stop being shared with terms
   built later, which is why {!equal} keeps a structural fallback. *)

type itbl = { mutable buckets : t list array; mutable count : int }

let dls_itbl : itbl Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { buckets = Array.make 1024 []; count = 0 })

let new_session () =
  let tbl = Domain.DLS.get dls_itbl in
  Array.fill tbl.buckets 0 (Array.length tbl.buckets) [];
  tbl.count <- 0

let comb h x = (h * 31) + x

(* structural, via a depth-limited [Hashtbl.hash_param]: deterministic
   whether or not the children happen to be shared. The probe compares
   candidates field-wise, so the hash only steers bucket placement — a
   shallow traversal is plenty *)
let hsub x = Hashtbl.hash_param 4 16 x
let hash_node = function
  | Const v -> comb 1 (Hashtbl.hash v)
  | Var v -> comb 2 v.v_id
  | Bin (op, a, b) ->
      comb (comb (comb 3 (Hashtbl.hash op)) (hsub a)) (hsub b)
  | Un (op, a) -> comb (comb 4 (Hashtbl.hash op)) (hsub a)
  | Slice (a, msb, lsb) -> comb (comb (comb 5 (hsub a)) msb) lsb
  | Concat (a, b) -> comb (comb 6 (hsub a)) (hsub b)

let resize tbl =
  let old = tbl.buckets in
  let n = Array.length old * 2 in
  let fresh = Array.make n [] in
  Array.iter
    (fun bucket ->
      List.iter
        (fun node ->
          let i = hash_node node land (n - 1) in
          fresh.(i) <- node :: fresh.(i))
        bucket)
    old;
  tbl.buckets <- fresh

let added tbl h node =
  if tbl.count >= 2 * Array.length tbl.buckets then resize tbl;
  let i = h land (Array.length tbl.buckets - 1) in
  tbl.buckets.(i) <- node :: tbl.buckets.(i);
  tbl.count <- tbl.count + 1;
  node

(* the constructors of [Ast.binop]/[Ast.unop] are all constant, hence
   immediates: physical equality below is value equality *)

let rec scan_const v = function
  | [] -> raise_notrace Not_found
  | (Const v' as n) :: _ when Value.equal v' v -> n
  | _ :: rest -> scan_const v rest

let rec scan_bin op a b = function
  | [] -> raise_notrace Not_found
  | (Bin (op', a', b') as n) :: _ when op' == op && a' == a && b' == b -> n
  | _ :: rest -> scan_bin op a b rest

let rec scan_un op a = function
  | [] -> raise_notrace Not_found
  | (Un (op', a') as n) :: _ when op' == op && a' == a -> n
  | _ :: rest -> scan_un op a rest

let rec scan_slice a msb lsb = function
  | [] -> raise_notrace Not_found
  | (Slice (a', msb', lsb') as n) :: _ when a' == a && msb' = msb && lsb' = lsb -> n
  | _ :: rest -> scan_slice a msb lsb rest

let rec scan_concat a b = function
  | [] -> raise_notrace Not_found
  | (Concat (a', b') as n) :: _ when a' == a && b' == b -> n
  | _ :: rest -> scan_concat a b rest

let intern_const v =
  let tbl = Domain.DLS.get dls_itbl in
  let h = comb 1 (Hashtbl.hash v) in
  try scan_const v tbl.buckets.(h land (Array.length tbl.buckets - 1))
  with Not_found -> added tbl h (Const v)

let intern_bin op a b =
  let tbl = Domain.DLS.get dls_itbl in
  let h = comb (comb (comb 3 (Hashtbl.hash op)) (hsub a)) (hsub b) in
  try scan_bin op a b tbl.buckets.(h land (Array.length tbl.buckets - 1))
  with Not_found -> added tbl h (Bin (op, a, b))

let intern_un op a =
  let tbl = Domain.DLS.get dls_itbl in
  let h = comb (comb 4 (Hashtbl.hash op)) (hsub a) in
  try scan_un op a tbl.buckets.(h land (Array.length tbl.buckets - 1))
  with Not_found -> added tbl h (Un (op, a))

let intern_slice a msb lsb =
  let tbl = Domain.DLS.get dls_itbl in
  let h = comb (comb (comb 5 (hsub a)) msb) lsb in
  try scan_slice a msb lsb tbl.buckets.(h land (Array.length tbl.buckets - 1))
  with Not_found -> added tbl h (Slice (a, msb, lsb))

let intern_concat a b =
  let tbl = Domain.DLS.get dls_itbl in
  let h = comb (comb 6 (hsub a)) (hsub b) in
  try scan_concat a b tbl.buckets.(h land (Array.length tbl.buckets - 1))
  with Not_found -> added tbl h (Concat (a, b))

(* ---------------- construction ---------------- *)

let counter = Atomic.make 0

let fresh_var ~name ~width =
  Var { v_id = 1 + Atomic.fetch_and_add counter 1; v_name = name; v_width = width }

let const v = intern_const v

let of_int ~width i = intern_const (Value.of_int ~width i)

let rec width = function
  | Const v -> Value.width v
  | Var v -> v.v_width
  | Bin ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.LAnd | Ast.LOr), _, _)
    ->
      1
  | Bin (_, a, _) -> width a
  | Un (Ast.LNot, _) -> 1
  | Un (Ast.BNot, a) -> width a
  | Slice (_, msb, lsb) -> msb - lsb + 1
  | Concat (a, b) -> width a + width b

let is_const = function Const v -> Some v | _ -> None

let apply_binop op (a : Value.t) (b : Value.t) =
  match (op : Ast.binop) with
  | Ast.Add -> Value.add a b
  | Ast.Sub -> Value.sub a b
  | Ast.Mul -> Value.mul a b
  | Ast.BAnd -> Value.logand a b
  | Ast.BOr -> Value.logor a b
  | Ast.BXor -> Value.logxor a b
  | Ast.Shl -> Value.shift_left a (Value.to_int b)
  | Ast.Shr -> Value.shift_right a (Value.to_int b)
  | Ast.Eq -> Value.eq a b
  | Ast.Neq -> Value.neq a b
  | Ast.Lt -> Value.lt a b
  | Ast.Le -> Value.le a b
  | Ast.Gt -> Value.gt a b
  | Ast.Ge -> Value.ge a b
  | Ast.LAnd -> Value.of_bool (Value.to_bool a && Value.to_bool b)
  | Ast.LOr -> Value.of_bool (Value.to_bool a || Value.to_bool b)

let tru = intern_const Value.tru

let fls = intern_const Value.fls

let bin op a b =
  match (is_const a, is_const b) with
  | Some va, Some vb -> intern_const (apply_binop op va vb)
  | ca, cb -> (
      let zero v = match v with Some x -> Value.is_zero x | None -> false in
      let all_ones v =
        match v with
        | Some x -> Value.equal x (Value.ones (Value.width x))
        | None -> false
      in
      match (op : Ast.binop) with
      | Ast.Add when zero cb -> a
      | Ast.Add when zero ca -> b
      | Ast.Sub when zero cb -> a
      | Ast.BAnd when zero ca || zero cb -> intern_const (Value.zero (width a))
      | Ast.BAnd when all_ones cb -> a
      | Ast.BAnd when all_ones ca -> b
      | Ast.BOr when zero cb -> a
      | Ast.BOr when zero ca -> b
      | Ast.BXor when zero cb -> a
      | Ast.BXor when zero ca -> b
      | Ast.LAnd when ca = Some Value.tru -> b
      | Ast.LAnd when cb = Some Value.tru -> a
      | Ast.LAnd when zero ca || zero cb -> fls
      | Ast.LOr when zero ca -> b
      | Ast.LOr when zero cb -> a
      | Ast.LOr when ca = Some Value.tru || cb = Some Value.tru -> tru
      | Ast.Eq when a == b || a = b -> tru
      | Ast.Neq when a == b || a = b -> fls
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.BAnd | Ast.BOr | Ast.BXor | Ast.Shl | Ast.Shr
      | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.LAnd | Ast.LOr ->
          intern_bin op a b)

let un op a =
  match (op, is_const a) with
  | Ast.BNot, Some v -> intern_const (Value.lognot v)
  | Ast.LNot, Some v -> intern_const (Value.of_bool (not (Value.to_bool v)))
  | Ast.LNot, None -> (
      match a with Un (Ast.LNot, inner) -> inner | _ -> intern_un op a)
  | Ast.BNot, None -> (
      match a with Un (Ast.BNot, inner) -> inner | _ -> intern_un op a)

let slice e ~msb ~lsb =
  if lsb = 0 && msb = width e - 1 then e
  else
    match is_const e with
    | Some v -> intern_const (Value.slice v ~msb ~lsb)
    | None -> intern_slice e msb lsb

let concat a b =
  match (is_const a, is_const b) with
  | Some va, Some vb -> intern_const (Value.concat va vb)
  | _ -> intern_concat a b

let not_ e = un Ast.LNot e

let vars e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v.v_id) then begin
          Hashtbl.add seen v.v_id ();
          acc := v :: !acc
        end
    | Bin (_, a, b) | Concat (a, b) ->
        go a;
        go b
    | Un (_, a) | Slice (a, _, _) -> go a
  in
  go e;
  List.rev !acc

let rec eval lookup = function
  | Const v -> v
  | Var v -> lookup v.v_id
  | Bin (op, a, b) -> (
      (* short-circuit logicals to avoid evaluating irrelevant branches *)
      match op with
      | Ast.LAnd ->
          if Value.to_bool (eval lookup a) then
            Value.of_bool (Value.to_bool (eval lookup b))
          else Value.fls
      | Ast.LOr ->
          if Value.to_bool (eval lookup a) then Value.tru
          else Value.of_bool (Value.to_bool (eval lookup b))
      | _ -> apply_binop op (eval lookup a) (eval lookup b))
  | Un (Ast.BNot, a) -> Value.lognot (eval lookup a)
  | Un (Ast.LNot, a) -> Value.of_bool (not (Value.to_bool (eval lookup a)))
  | Slice (a, msb, lsb) -> Value.slice (eval lookup a) ~msb ~lsb
  | Concat (a, b) -> Value.concat (eval lookup a) (eval lookup b)

(* ---------------- compiled evaluation ----------------

   A model is an [int64 array]: variable [id] reads slot [slot id],
   holding its value masked to its width. The literal shapes path
   conditions are made of ([v ⋈ c], [(v & m) == c], [(v >> s) == c]
   under [!], [&&] and [||]) read their slot and allocate nothing. Every
   other node computes on raw [int64]s with [Value]'s semantics, and
   raises the same [Invalid_argument] where [eval] would. Operands are
   evaluated right to left, as [eval]'s arguments are. *)

let mask_of w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* unsigned order on int64: flip the sign bit of both sides *)
let bias x = Int64.add x Int64.min_int

(* [Value.to_int] of a shift amount *)
let shift_amount x =
  if x < 0L || x > Int64.of_int max_int then invalid_arg "Value.to_int: overflow";
  Int64.to_int x

let rec compile_value slot e : int64 array -> int64 =
  match e with
  | Const c ->
      let c = Value.to_int64 c in
      fun _ -> c
  | Var v ->
      let s = slot v.v_id in
      fun m -> m.(s)
  | Bin ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.LAnd | Ast.LOr), _, _)
  | Un (Ast.LNot, _) ->
      let p = compile slot e in
      fun m -> if p m then 1L else 0L
  | Bin (op, a, b) -> (
      let fa = compile_value slot a and fb = compile_value slot b in
      let mask = mask_of (width a) in
      match op with
      | Ast.Add -> fun m -> let y = fb m in Int64.logand (Int64.add (fa m) y) mask
      | Ast.Sub -> fun m -> let y = fb m in Int64.logand (Int64.sub (fa m) y) mask
      | Ast.Mul -> fun m -> let y = fb m in Int64.logand (Int64.mul (fa m) y) mask
      | Ast.BAnd -> fun m -> let y = fb m in Int64.logand (Int64.logand (fa m) y) mask
      | Ast.BOr -> fun m -> let y = fb m in Int64.logand (Int64.logor (fa m) y) mask
      | Ast.BXor -> fun m -> let y = fb m in Int64.logand (Int64.logxor (fa m) y) mask
      | Ast.Shl ->
          fun m ->
            let y = fb m in
            let x = fa m in
            let n = shift_amount y in
            if n >= 64 then 0L else Int64.logand (Int64.shift_left x n) mask
      | Ast.Shr ->
          fun m ->
            let y = fb m in
            let x = fa m in
            let n = shift_amount y in
            if n >= 64 then 0L else Int64.shift_right_logical x n
      | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.LAnd | Ast.LOr ->
          assert false (* matched above *))
  | Un (Ast.BNot, a) ->
      let fa = compile_value slot a and mask = mask_of (width a) in
      fun m -> Int64.logand (Int64.lognot (fa m)) mask
  | Slice (a, msb, lsb) ->
      let fa = compile_value slot a in
      if lsb < 0 || msb < lsb || msb >= width a then fun m ->
        ignore (fa m);
        invalid_arg "Value.slice"
      else
        let mask = mask_of (msb - lsb + 1) in
        fun m -> Int64.logand (Int64.shift_right_logical (fa m) lsb) mask
  | Concat (a, b) ->
      let fa = compile_value slot a and fb = compile_value slot b and wb = width b in
      if width a + wb > 64 then fun m ->
        ignore (fb m);
        ignore (fa m);
        invalid_arg "Value.concat: width"
      else fun m -> let y = fb m in Int64.logor (Int64.shift_left (fa m) wb) y

and compile slot e : int64 array -> bool =
  match e with
  | Bin (Ast.LAnd, a, b) ->
      let pa = compile slot a and pb = compile slot b in
      fun m -> pa m && pb m
  | Bin (Ast.LOr, a, b) ->
      let pa = compile slot a and pb = compile slot b in
      fun m -> pa m || pb m
  | Un (Ast.LNot, a) ->
      let pa = compile slot a in
      fun m -> not (pa m)
  | Bin (Ast.Eq, Bin (Ast.BAnd, Var v, Const mk), Const c) ->
      let s = slot v.v_id and mk = Value.to_int64 mk and c = Value.to_int64 c in
      fun m -> Int64.logand m.(s) mk = c
  | Bin (Ast.Eq, Bin (Ast.Shr, Var v, Const sh), Const c)
    when Value.to_int64 sh >= 0L && Value.to_int64 sh < 64L ->
      let s = slot v.v_id and c = Value.to_int64 c and n = Int64.to_int (Value.to_int64 sh) in
      fun m -> Int64.shift_right_logical m.(s) n = c
  | Bin (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), Var v, Const c) -> (
      let s = slot v.v_id and c = Value.to_int64 c in
      let bc = bias c in
      match op with
      | Ast.Eq -> fun m -> m.(s) = c
      | Ast.Neq -> fun m -> m.(s) <> c
      | Ast.Lt -> fun m -> bias m.(s) < bc
      | Ast.Le -> fun m -> bias m.(s) <= bc
      | Ast.Gt -> fun m -> bias m.(s) > bc
      | _ -> fun m -> bias m.(s) >= bc)
  | Bin (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
      let fa = compile_value slot a and fb = compile_value slot b in
      match op with
      | Ast.Eq -> fun m -> let y = fb m in fa m = y
      | Ast.Neq -> fun m -> let y = fb m in fa m <> y
      | Ast.Lt -> fun m -> let y = fb m in bias (fa m) < bias y
      | Ast.Le -> fun m -> let y = fb m in bias (fa m) <= bias y
      | Ast.Gt -> fun m -> let y = fb m in bias (fa m) > bias y
      | _ -> fun m -> let y = fb m in bias (fa m) >= bias y)
  | e ->
      let f = compile_value slot e in
      fun m -> f m <> 0L

(* physical first — interned terms of one session hit it — with the
   structural fallback for terms built across sessions or by hand *)
let equal a b = a == b || a = b

let binop_str (op : Ast.binop) =
  match op with
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.BAnd -> "&"
  | Ast.BOr -> "|"
  | Ast.BXor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Eq -> "=="
  | Ast.Neq -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.LAnd -> "&&"
  | Ast.LOr -> "||"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Var v -> Format.fprintf ppf "%s#%d" v.v_name v.v_id
  | Bin (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_str op) pp b
  | Un (Ast.BNot, a) -> Format.fprintf ppf "~%a" pp a
  | Un (Ast.LNot, a) -> Format.fprintf ppf "!%a" pp a
  | Slice (a, msb, lsb) -> Format.fprintf ppf "%a[%d:%d]" pp a msb lsb
  | Concat (a, b) -> Format.fprintf ppf "(%a ++ %a)" pp a pp b
