(** Minimal aligned text-table renderer for experiment output.

    Every reproduced paper table/figure is printed through this module so
    the bench output is uniform and diff-friendly. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows
    are truncated. *)

val render : t -> string
