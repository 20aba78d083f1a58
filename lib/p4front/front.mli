(** Front door: parse + elaborate P4-flavoured source into a deployable
    bundle. *)

type error = { message : string; line : int; col : int }
(** [line]/[col] are 0 for elaboration errors (which have no position). *)

val parse_string :
  name:string -> string -> (P4ir.Programs.bundle, error) result
(** [name] becomes the program name. The bundle's description notes the
    textual origin. The entries are installed into a fresh
    {!P4ir.Runtime.t} as a check, so an entry that {!P4ir.Runtime.add}
    refuses (a prefix longer than its key, say) is an [Error] here rather
    than at deploy. *)

val parse_file : string -> (P4ir.Programs.bundle, error) result
(** Program name is the basename without extension. *)

val pp_error : Format.formatter -> error -> unit
