(** The in-device output packet checker (right box of Figure 1).

    Attaches to the device's check point — before the output interfaces —
    and evaluates programmable rules on every packet the data plane emits,
    at line rate (in the model: synchronously on each emission, with no
    effect on the data path).

    Each rule is a filter/expect pair of P4 expressions over the test
    program's headers; the checker re-parses every output packet with the
    program's parser (never dropping — its parse errors are themselves
    observable through [standard_metadata.parser_error]) and exposes the
    observed output port as [standard_metadata.egress_spec]. Failing
    packets are captured in a bounded ring for the host tool.

    Rules are evaluated only while some are armed: each emission is then
    re-parsed and judged against every armed rule, moving the per-rule
    tallies and the [checker/pass] / [checker/fail] registry counters.
    With no rule armed — background traffic outside a validation batch,
    fabric hops — the tap only counts the emission ([checker/seen]) and
    records its latency and rate. *)

type t

val create : program:P4ir.Ast.program -> Target.Device.t -> t
(** Attaches the device's check tap. The checker keeps the first 64
    captures. *)

val configure : t -> Wire.rule list -> unit
(** Replace the rule set and reset statistics and captures. *)

val rules : t -> Wire.rule list
(** The armed rule set, in evaluation order. [configure t (rules t)]
    re-arms the same rules with fresh tallies — how a batch that arms
    its own rules hands the caller's set back. *)

val summary : t -> Wire.checker_summary
(** Counters (seen/passed/failed per rule) plus the capture ring of
    failing packets — the payload of a [Read_checker] reply. *)

val clear : t -> unit
(** Reset statistics and captures, keep the rules. *)
