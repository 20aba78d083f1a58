type quirk =
  | Reject_unimplemented
  | Ternary_as_exact
  | Shift_width_truncated of int
  | Egress_drop_ignored
  | Select_cases_truncated of int
  | Checksum_not_handled

type t = quirk list

let default = [ Reject_unimplemented ]

let none = []

let all =
  [
    Reject_unimplemented;
    Ternary_as_exact;
    Shift_width_truncated 5;
    Egress_drop_ignored;
    Select_cases_truncated 1;
    Checksum_not_handled;
  ]

let has_reject_unimplemented t = List.mem Reject_unimplemented t

let shift_truncation t =
  List.find_map (function Shift_width_truncated n -> Some n | _ -> None) t

let select_truncation t =
  List.find_map (function Select_cases_truncated n -> Some n | _ -> None) t

let has t q = List.mem q t

let name = function
  | Reject_unimplemented -> "reject-unimplemented"
  | Ternary_as_exact -> "ternary-as-exact"
  | Shift_width_truncated n -> Printf.sprintf "shift-width-%d" n
  | Egress_drop_ignored -> "egress-drop-ignored"
  | Select_cases_truncated n -> Printf.sprintf "select-cases-%d" n
  | Checksum_not_handled -> "checksum-not-handled"

let pp ppf t =
  if t = [] then Format.pp_print_string ppf "(none)"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      (fun ppf q -> Format.pp_print_string ppf (name q))
      ppf t
