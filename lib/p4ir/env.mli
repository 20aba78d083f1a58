(** Per-packet runtime state: header instances, user metadata, standard
    metadata and (during action execution) action parameters.

    The tree interpreter operates on this state; the staged engine
    ({!Compilecore}) mirrors it over integer slots. Reading a field of an
    invalid header yields zero — the
    P4 spec leaves it undefined; we pick the common hardware behaviour and
    rely on it consistently in both executors. *)

type t

val create : Ast.program -> t

val program : t -> Ast.program

val reset : t -> unit
(** Invalidate all headers, zero all metadata, clear the payload. *)

(* Headers *)

val is_valid : t -> string -> bool
val set_valid : t -> string -> unit
val set_invalid : t -> string -> unit

val get_field : t -> string -> string -> Value.t
(** @raise Invalid_argument for undeclared header or field. *)

val set_field : t -> string -> string -> Value.t -> unit
(** Truncates/pads the value to the declared field width. Setting a field
    of an invalid header is a no-op (matching hardware write-enable
    gating). *)

(* User metadata *)

val get_meta : t -> string -> Value.t
val set_meta : t -> string -> Value.t -> unit

(* Standard metadata *)

val get_std : t -> Ast.std_field -> Value.t
val set_std : t -> Ast.std_field -> Value.t -> unit

val dropped : t -> bool
(** egress_spec = drop port. *)

(* Action parameters (dynamically scoped during action execution) *)

val with_params : t -> (string * Value.t) list -> (unit -> 'a) -> 'a
val get_param : t -> string -> Value.t

(* Unparsed payload carried through the pipeline *)

val payload : t -> Bitutil.Bitstring.t
val set_payload : t -> Bitutil.Bitstring.t -> unit

val snapshot_fields : t -> (string * string * Value.t) list
(** All (header, field, value) triples of valid headers, for diffing in
    comparison tests. *)
