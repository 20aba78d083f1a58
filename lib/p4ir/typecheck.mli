(** Static checks over IR programs.

    Catches what the P4 front-end would reject: undeclared names, width
    mismatches, malformed parsers and tables. Programs accepted here may
    still behave differently on a target — that divergence is exactly what
    the rest of the system explores. *)

type error = { loc : string; msg : string }

val check : Ast.program -> (unit, error list) result

val expr_width :
  Ast.program -> params:Ast.field_decl list -> Ast.expr -> (int, string) result
(** Width of a well-typed expression; [params] are the action parameters in
    scope (empty outside actions). *)

val pp_error : Format.formatter -> error -> unit
