(** A bounded satisfiability search for conjunctions of width-1 symbolic
    expressions.

    The solver is {e sound for SAT}: a returned model is always verified
    against every constraint by {!holds} (the {!Sym.eval} reference)
    before being reported. It is incomplete for UNSAT — it answers
    [Unsat] only when known bits or unsigned bounds gathered from the
    literals contradict each other, and [Unknown] when [max_tries]
    random tries find no model. This is the right trade-off for a
    verification tool whose job is to {e find counterexamples}:
    candidate values are mined from the constants that appear in the
    constraints (select cases, table entries, comparison bounds), so
    realistic data-plane path conditions are solved in a few thousand
    tries.

    The search runs on compiled checks: each constraint is compiled once
    per call ({!Sym.compile}) over a dense model whose slots follow the
    variables' ids, and filed under the slot of its last variable. A
    constraint without variables is decided once, before the search.
    When the mined candidates' product fits [max_tries], a systematic
    walk assigns the variables in order and tests each constraint as
    soon as its last variable is set, pruning only subtrees that hold no
    model, so it finds the first model in walk order. Otherwise, and
    when the walk fails, each random try draws one value per variable in
    the same order, stops at the first failing constraint and skips the
    draws it did not make ({!Bitutil.Prng.advance}), so the generator's
    stream, and hence the model found for a seed, is that of a full
    draw per try. *)

type model

type result = Sat of model | Unsat | Unknown

val solve : ?seed:int -> ?max_tries:int -> ?use_mining:bool -> Sym.t list -> result
(** Satisfiability of the conjunction. [max_tries] defaults to 20000.
    [use_mining] (default true) enables candidate mining from the
    constraints' constants; disabling it degrades the search to
    extremes-plus-random sampling (exposed for the ablation bench). *)

val model_value : model -> int -> P4ir.Value.t
(** Value of a variable id in the model; unconstrained variables read 0. *)

val holds : model -> Sym.t list -> bool
(** Re-check a conjunction under a model (unassigned variables read 0). *)
