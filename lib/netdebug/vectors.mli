(** Directed test-vector generation.

    NetDebug's generator is only as good as the packets it is told to
    send. This module mines them from two sources: the symbolic executor
    (one witness per satisfiable control path of the specification — full
    path coverage of parser and tables) and a seeded fuzzer over
    well-formed templates. *)

val from_paths : P4ir.Ast.program -> P4ir.Runtime.t -> Bitutil.Bitstring.t list
(** One concrete packet per satisfiable execution path, in exploration
    order, capped at 64. A thin wrapper over
    {!Symexec.Testgen.generate} that keeps only the packets; use the
    oracle directly when the expected observations are wanted too. *)

val fuzz : ?seed:int -> count:int -> unit -> Bitutil.Bitstring.t list
(** Random-but-plausible Ethernet/IPv4 traffic: random addresses, ports,
    TTLs, occasional ARP and unknown EtherTypes. *)
