(** Evaluation of IR expressions and execution of IR statements against an
    {!Env}.

    The reference interpreter runs it under {!spec_hooks}; the staged
    engine the compiled device runs ({!Compilecore}) takes the same
    [hooks] record, describing the compiler's deviations from the spec
    (the SDNet quirk model). Parameterizing both by one hooks record
    keeps any observable difference between interpreter and device down
    to the hooks — the property NetDebug detects. *)

type phase = Ingress | Egress

type hooks = {
  shift_amount : int -> int;
      (** transformation of shift amounts; identity in the spec, masking in
          targets with narrow shifters *)
  drop_effective : phase -> bool;
      (** whether [MarkToDrop] works in the given phase; always true in the
          spec *)
  degrade_ternary_to_exact : bool;  (** ternary keys matched as exact *)
  table_always_miss : string -> bool;
      (** lookup-memory fault: the named table misses on every key; always
          false in the spec *)
}

val spec_hooks : hooks

type ctx

val make_ctx :
  ?hooks:hooks ->
  ?on_count:(string -> unit) ->
  ?on_assert:(bool -> string -> unit) ->
  ?on_table:(table:string -> hit:bool -> action:string -> unit) ->
  ?regs:Regstate.t ->
  env:Env.t ->
  runtime:Runtime.t ->
  unit ->
  ctx
(** [regs] defaults to a fresh zeroed store for the env's program; pass a
    long-lived one to model persistent hardware state. *)

val env : ctx -> Env.t

val set_phase : ctx -> phase -> unit

val eval : ctx -> Ast.expr -> Value.t
(** @raise Invalid_argument on ill-typed expressions the typechecker would
    reject (undeclared names, width mismatches in concat, …). *)

val run_stmts : ctx -> Ast.stmt list -> unit

val run_action : ctx -> string -> Value.t list -> unit
(** Execute a declared action with the given arguments. *)
