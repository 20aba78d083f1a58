(** FPGA resource vectors: what a compiled design consumes, added up per
    stage and checked against a {!Config} budget by place-and-route. *)

type t = { luts : int; ffs : int; brams : int; tcam_bits : int }

val make : ?luts:int -> ?ffs:int -> ?brams:int -> ?tcam_bits:int -> unit -> t
(** Omitted components default to zero. *)

val add : t -> t -> t

val sum : t list -> t

val fits : t -> Config.t -> bool
(** Every component within the target's budget. *)

val utilization : t -> Config.t -> (string * float) list
(** Percent of budget used, per component name. *)

val pp : Format.formatter -> t -> unit
