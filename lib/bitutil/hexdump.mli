(** Classic 16-bytes-per-line hex dump, for failure capture rendering. *)

val to_string : string -> string
