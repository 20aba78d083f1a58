type mkey =
  | Exact_v of Value.t
  | Lpm_v of Value.t * int
  | Ternary_v of Value.t * Value.t

type t = { priority : int; keys : mkey list; action : string; args : Value.t list }

let make ?(priority = 0) ~keys ~action ?(args = []) () = { priority; keys; action; args }

let exact v = Exact_v v

let lpm v len = Lpm_v (v, len)

let ternary v m = Ternary_v (v, m)

(* The lookup path ([keys_match]/[select]) runs once per entry per table
   apply, so it must not allocate: the quirk flag travels as a plain bool
   (never an option) and the scan below is closure-free recursion. *)
let key_matches_b dte mk v =
  match mk with
  | Exact_v e -> Value.to_int64 e = Value.to_int64 v
  | Lpm_v (e, len) -> Value.matches_prefix v ~value:(Value.to_int64 e) ~prefix_len:len
  | Ternary_v (e, m) ->
      if dte then Value.to_int64 e = Value.to_int64 v
      else Value.matches_mask v ~value:(Value.to_int64 e) ~mask:(Value.to_int64 m)

let rec keys_match dte mks vs =
  match (mks, vs) with
  | [], [] -> true
  | mk :: mks, v :: vs -> key_matches_b dte mk v && keys_match dte mks vs
  | _, _ -> false

let matches ?(degrade_ternary_to_exact = false) t vs =
  keys_match degrade_ternary_to_exact t.keys vs

let popcount v =
  let rec go acc v = if v = 0L then acc else go (acc + 1) Int64.(logand v (sub v 1L)) in
  go 0 v

let specificity t =
  List.fold_left
    (fun acc mk ->
      acc
      +
      match mk with
      | Exact_v v -> Value.width v
      | Lpm_v (_, len) -> len
      | Ternary_v (_, m) -> popcount (Value.to_int64 m))
    0 t.keys

(* [select_first] finds the first matching entry, then [select_improve]
   carries the best-so-far as plain arguments; the only allocation on the
   whole scan is the final [Some]. Earlier install order wins remaining
   ties because replacement requires a strict improvement. Top-level (not
   nested in [select]) so no closure is built per lookup. *)
let rec select_improve dte vs best bp bs = function
  | [] -> Some best
  | e :: rest ->
      if
        keys_match dte e.keys vs
        && (e.priority > bp || (e.priority = bp && specificity e > bs))
      then select_improve dte vs e e.priority (specificity e) rest
      else select_improve dte vs best bp bs rest

let rec select_first dte vs = function
  | [] -> None
  | e :: rest ->
      if keys_match dte e.keys vs then
        select_improve dte vs e e.priority (specificity e) rest
      else select_first dte vs rest

let select ?(degrade_ternary_to_exact = false) entries vs =
  select_first degrade_ternary_to_exact vs entries

let pp_mkey ppf = function
  | Exact_v v -> Format.fprintf ppf "=%a" Value.pp v
  | Lpm_v (v, len) -> Format.fprintf ppf "%a/%d" Value.pp v len
  | Ternary_v (v, m) -> Format.fprintf ppf "%a&&&%a" Value.pp v Value.pp m

let pp ppf t =
  Format.fprintf ppf "@[prio=%d [%a] -> %s(%a)@]" t.priority
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_mkey)
    t.keys t.action
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    t.args
