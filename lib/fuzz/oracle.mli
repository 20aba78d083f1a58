(** Differential oracle: one input through both sides of the validation
    architecture.

    The specification side is {!P4ir.Interp} over the deployed program and
    entries; the device side is the sdnet-compiled pipeline fed by the
    real NetDebug generator at its injection point (after the input
    interfaces) and judged from the disposition the device hands back.
    Any difference in observable behaviour — forward vs drop, egress
    port, payload bytes — is a divergence with a stable fingerprint for
    deduplication. Both sides feed one {!Coverage} map. *)

type dev_result = Dev_forwarded of int * Bitutil.Bitstring.t | Dev_dropped

type kind =
  | Verdict  (** one side forwarded, the other dropped *)
  | Port  (** both forwarded, different egress ports *)
  | Payload  (** same port, different bytes on the wire *)

type divergence = {
  d_kind : kind;
  d_spec : string;  (** e.g. ["drop:parser:checksum-mismatch"] *)
  d_dev : string;  (** e.g. ["forward:port=1"] *)
  d_fingerprint : string;  (** stable dedup key: kind + both summaries *)
}

type exec = {
  x_spec : P4ir.Interp.result;
  x_dev : dev_result;
  x_divergence : divergence option;
}

type t

val create : ?quirks:Sdnet.Quirks.t -> P4ir.Programs.bundle -> t
(** Deploy the bundle under [quirks] (default {!Sdnet.Quirks.default},
    i.e. the shipped toolchain) with spans off and attach coverage taps.
    Registers ["fuzz/executions"], ["fuzz/divergences"] and the
    ["fuzz/edges"] gauge on the device's metrics registry. *)

val execute : t -> Bitutil.Bitstring.t -> exec
(** One differential execution: [exec_batch t [| x |]]. Device registers
    are reset first so executions are independent and reproducers replay
    faithfully; the device side is the generator's raw shot
    ({!Netdebug.Generator.send_raw}), judged from the device's
    disposition. Inside a {!with_batch} window it shares the window's
    quiesce; outside one it runs in a one-element window of its own. *)

val with_batch : t -> (unit -> 'a) -> 'a
(** [with_batch t f] opens a batch window around [f]: every {!execute}
    inside skips the per-execution quiesce, and on exit (exceptional or
    not) the device is quiesced once. Nested windows collapse into the
    outermost one. *)

val exec_batch : t -> Bitutil.Bitstring.t array -> exec array
(** [exec_batch t inputs] drives the whole vector batch through one
    batch window — one quiesce for the batch instead of one per
    execution. Results land at their input index. *)

val attribute : t -> Bitutil.Bitstring.t -> Sdnet.Quirks.quirk list
(** Which active quirks this diverging input implicates: quirk [q] is
    culpable iff redeploying without just [q] makes the divergence vanish
    (fresh probe harnesses; the campaign's own state is untouched). *)

val kind_name : kind -> string
val coverage : t -> Coverage.t
val executions : t -> int
val quirks : t -> Sdnet.Quirks.t
val bundle : t -> P4ir.Programs.bundle
val metrics : t -> Telemetry.Registry.t
