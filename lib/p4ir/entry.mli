(** Table entries: the control-plane-installed rules matched by tables. *)

type mkey =
  | Exact_v of Value.t
  | Lpm_v of Value.t * int  (** value, prefix length *)
  | Ternary_v of Value.t * Value.t  (** value, mask *)

type t = {
  priority : int;  (** higher wins among ternary matches *)
  keys : mkey list;  (** one per table key, in key order *)
  action : string;
  args : Value.t list;  (** bound to the action's parameters *)
}

val make : ?priority:int -> keys:mkey list -> action:string -> ?args:Value.t list -> unit -> t

val exact : Value.t -> mkey
val lpm : Value.t -> int -> mkey
val ternary : Value.t -> Value.t -> mkey

val matches : ?degrade_ternary_to_exact:bool -> t -> Value.t list -> bool

val specificity : t -> int
(** Tie-break score: exact = key width, LPM = prefix length, ternary =
    mask popcount; summed over keys. Longest-prefix-wins falls out of it. *)

val select :
  ?degrade_ternary_to_exact:bool -> t list -> Value.t list -> t option
(** Best-matching entry: maximum (priority, specificity), earlier install
    order breaking remaining ties. The list is in install order. *)

val pp : Format.formatter -> t -> unit
