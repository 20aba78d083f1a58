(** Staged execution engine: compile the P4 IR to closures at deploy time.

    [compile] runs once per (program, hooks) configuration and lowers the
    whole IR — slot-interned headers/metadata with precomputed bit offsets
    and masks, the parser FSM as a dispatch table over state indices,
    match-action tables onto the runtime's incremental {!Classifier}
    structures (patched in place by control-plane updates, so a churn
    storm never re-lowers a table) with a per-entry-id cache of compiled
    action closures, actions as closure chains over a positional argument
    vector, and the deparser as an emit loop into a reused
    {!Bitutil.Bitstring.Builder}. Fields move between packet bits and
    slots a 64-bit word at a time ({!Bitutil.Bitstring.extract},
    {!Bitutil.Bitstring.blit_int64}), and the IPv4 checksum check and
    refresh sum the header 16 bits at a time straight from its slots,
    never rendering it.

    [instantiate] then binds the compiled form to a control plane
    ({!Runtime.t}), register storage and observation callbacks, yielding a
    mutable per-executor instance that processes packets with no
    steady-state allocation.

    The staged engine is observationally equivalent to the tree-walking
    interpreter ({!Parse}/{!Exec}/{!Deparse}) under the same hooks:
    identical results, callbacks in the same order, identical exception
    messages at the same program points. Sole documented deviation: action
    parameters resolve with static per-action scoping, where the tree
    engine's environment stack would also expose a dynamically enclosing
    action's parameters — programs relying on that are rejected by
    {!Typecheck}, so the engines agree on every well-typed program. *)

type engine = [ `Tree | `Staged ]
(** The two executors of a program: the tree-walking interpreter
    ({!Parse}/{!Exec}/{!Deparse}), kept as the readable specification
    reference, and this staged engine. *)

type t
(** A compiled program: immutable, shareable across instances (and across
    domains — compilation closes over no mutable state). *)

type inst
(** A mutable execution context bound to one runtime, one register store
    and one set of observation callbacks. Not thread-safe; one per
    executor (the parallel engine instantiates per-domain). *)

val compile :
  ?exec_hooks:Exec.hooks ->
  ?parse_hooks:Parse.hooks ->
  ?update_ipv4_checksum:bool ->
  Ast.program ->
  t
(** Hooks default to the spec hooks; [update_ipv4_checksum] defaults to
    the program's own flag. All hooks except [table_always_miss] are baked
    into the compiled code; [table_always_miss] stays dynamic (it can be
    overridden per instance, which the device simulator uses for
    stuck-at-miss fault injection). *)

val spec_compiled : Ast.program -> t
(** [compile] under pure spec hooks, memoized per domain on the program's
    physical identity (bounded LRU). This is what {!Interp} uses. *)

(** {1 Compiled-form accessors}

    Counters, asserts, tables and parser states are interned to dense
    integer ids; callbacks receive ids and these map them back. *)

val n_counters : t -> int
val counter_name : t -> int -> string
val n_tables : t -> int
val table_name : t -> int -> string
val assert_msg : t -> int -> string
val has_registers : t -> bool

(** {1 Instances} *)

val instantiate :
  ?on_count:(int -> unit) ->
  ?on_assert:(bool -> int -> unit) ->
  ?on_table:(int -> bool -> string -> unit) ->
  ?table_always_miss:(string -> bool) ->
  ?regs:Regstate.t ->
  ?track_states:bool ->
  t ->
  runtime:Runtime.t ->
  inst
(** [on_table id hit action] fires before the action body runs, hit or
    miss, exactly like [Exec.apply_table]. [on_assert ok id] fires on
    every assert. [table_always_miss] overrides the compiled hooks' (the
    device wraps it with live fault state); [regs] defaults to a fresh
    zeroed store; [track_states] (default false) records parser states
    for {!parse_outcome}. *)

val set_regs : inst -> Regstate.t -> unit
(** Rebind register storage (slot resolution happens here, once). *)

val set_track_states : inst -> bool -> unit

val reset : inst -> unit
(** Clear all per-packet state: fields, validity, metadata, standard
    metadata, parse results. Registers and table matchers persist. *)

val set_ingress_port : inst -> int -> unit

val run_parser : inst -> Bitutil.Bitstring.t -> unit
(** Parse a packet (also sets [packet_length]). Results via
    {!parse_accepted}/{!parse_error}/{!parse_outcome}. *)

val parse_accepted : inst -> bool
val parse_error : inst -> int

val parse_outcome : inst -> Parse.outcome
(** [states_visited] is empty unless the instance tracks states. *)

val run_ingress : inst -> unit
val run_egress : inst -> unit

val dropped : inst -> bool
(** [egress_spec] holds {!Stdmeta.drop_port}. *)

val egress_port : inst -> int

val deparse : inst -> Bitutil.Bitstring.t
(** Emit valid headers in deparser order plus the payload, updating the
    IPv4 checksum slot first when configured — into a reused buffer, so
    the only allocation is the final immutable snapshot. *)

val corrupt_field : inst -> string -> string -> int64 -> unit
(** [corrupt_field i h f mask] XORs [mask] into a field of a valid header
    (no-op when invalid), mirroring the device simulator's corrupt fault.
    @raise Invalid_argument for undeclared names, like {!Env.get_field}. *)

val mutate_field : inst -> string -> string -> (int -> int64) -> unit
(** [mutate_field i h f v] sets a field of a valid header to [v width],
    masked to the field's width, after {!run_parser} and before
    {!deparse} — the test packet generator's stream mutations. An
    invalid header is left untouched and [v] is not called, as the tree
    render's [Env.is_valid] guard does.
    @raise Invalid_argument for an undeclared header, or an undeclared
    field of a valid header, with {!Env}'s messages. *)
