(** Symbolic bit-vector expressions over the fields of an unknown packet.

    The symbolic executor assigns every extracted header field a fresh
    variable; all computation in the program then builds expressions over
    those variables. Widths follow {!P4ir.Value} (1-64 bits); booleans are
    width-1 expressions.

    Terms are {e hash-consed}: the smart constructors ({!bin}, {!un},
    {!slice}, {!concat}, {!const}) intern every node in a domain-local
    table, so structurally equal subterms built during one exploration
    session share a single heap node. Repeated path-condition prefixes —
    the same table-entry match re-evaluated on every branch of a fork
    tree — therefore cost one allocation total instead of one per path.
    Interning is an optimization, never a semantic contract: terms built
    with the bare constructors, or across {!new_session} boundaries,
    simply lose sharing, and {!equal} falls back to structural
    comparison. *)

type var = { v_id : int; v_name : string; v_width : int }
(** A symbolic variable: [v_id] is globally unique (allocation is
    atomic, so variables minted by concurrent domains never collide);
    [v_name] and [v_width] are for diagnostics and witness rendering. *)

type t =
  | Const of P4ir.Value.t  (** literal bit-vector *)
  | Var of var  (** unknown input bits (header field, register havoc) *)
  | Bin of P4ir.Ast.binop * t * t  (** binary operator application *)
  | Un of P4ir.Ast.unop * t  (** unary operator application *)
  | Slice of t * int * int  (** [Slice (e, msb, lsb)], inclusive bounds *)
  | Concat of t * t  (** bit concatenation, first operand on top *)

val fresh_var : name:string -> width:int -> t
(** A variable with a globally unique id; names are diagnostics only.
    Safe to call from any domain. *)

val const : P4ir.Value.t -> t
(** Interned constant term. *)

val of_int : width:int -> int -> t
(** [of_int ~width i] is [const (Value.of_int ~width i)]. *)

val width : t -> int
(** Bit width of the expression (comparisons and logicals are width 1). *)

val is_const : t -> P4ir.Value.t option
(** The value when the expression folded to a constant. *)

val bin : P4ir.Ast.binop -> t -> t -> t
(** Smart constructor: constant-folds, applies simple identities
    (x+0, x&0, x^x, masks, double negation, ...) and interns the
    resulting node. *)

val un : P4ir.Ast.unop -> t -> t
(** Smart constructor for unary operators; cancels double negation. *)

val slice : t -> msb:int -> lsb:int -> t
(** Bit slice with inclusive bounds; the full-width slice is the
    identity. *)

val concat : t -> t -> t
(** Bit concatenation; folds when both sides are constants. *)

val not_ : t -> t
(** Boolean negation of a width-1 expression. *)

val vars : t -> var list
(** Distinct variables, by id, in first-occurrence order. *)

val eval : (int -> P4ir.Value.t) -> t -> P4ir.Value.t
(** Evaluate under an assignment from var id to value. Logical
    operators short-circuit, so irrelevant branches are never evaluated.
    @raise Not_found if the assignment misses a variable. *)

val compile : (int -> int) -> t -> int64 array -> bool
(** [compile slot e] compiles the width-1 term [e] once into a predicate
    over a dense model: variable [id] reads [model.(slot id)], which
    must hold its value masked to the variable's width. The result
    agrees with [Value.to_bool (eval lookup e)] under the same
    assignment, and raises the same [Invalid_argument] where {!eval}
    does. Comparisons of a variable with a constant, directly, under a
    constant mask or a constant right shift, and their combinations
    under [!], [&&] and [||], allocate nothing.
    @raise Not_found (from [slot]) if a variable has no slot. *)

val equal : t -> t -> bool
(** Structural equality (after construction-time simplification), with a
    constant-time physical fast path for terms interned in the same
    session. *)

val new_session : unit -> unit
(** Reset the calling domain's intern table. {!Sexec.explore} calls this
    at the start of every exploration: fresh variables make sharing
    across explorations impossible, so resetting bounds the table's
    memory without losing any useful sharing. Existing terms stay valid
    — they only stop being shared with terms interned later. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, fully parenthesized. *)
