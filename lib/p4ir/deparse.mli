(** Deparser: re-serialize the valid headers (in program deparser order)
    followed by the unconsumed payload. *)

val run : ?update_ipv4_checksum:bool -> Env.t -> Bitutil.Bitstring.t
(** [update_ipv4_checksum] overrides the program's
    [p_update_ipv4_checksum] flag — a compiled pipeline passes [false]
    under the checksum quirk. When the update runs, the env's "ipv4"
    checksum field is recomputed in place before emission.
    @raise Invalid_argument if the deparser names an undeclared header. *)
