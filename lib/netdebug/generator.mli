(** The in-device test packet generator (left box of Figure 1).

    Programmable: a configured stream carries a template packet plus field
    mutations expressed against the P4 program's header layout. The
    generator injects each packet directly into the data plane under
    test — after the input interfaces, which is what lets NetDebug test
    a device whose ports are dark. A template with no mutations is
    injected exactly as given. A mutated one is rendered: parsed with the
    program's parser, mutated, and re-deparsed.

    The render is the program's parser and deparser compiled by
    {!P4ir.Compilecore} under {!P4ir.Parse.lenient_hooks} (it is
    NetDebug's infrastructure, not the device under test: it never drops
    and never verifies a checksum). It refreshes the IPv4 checksum after
    mutation when the program updates it, unless a mutation explicitly
    targets the checksum field (so corrupted-checksum test streams are
    possible). *)

type t

val create : program:P4ir.Ast.program -> Target.Device.t -> t
(** A generator attached to [device]'s injection point, mutating fields
    against [program]'s header layout. *)

val configure : t -> Wire.stream list -> unit
(** Replace the configured streams (template + mutations + count +
    pacing each); nothing is injected until {!start}. *)

val start : t -> unit
(** Render and inject every configured packet, in virtual-time order
    across streams. *)

val send_raw : t -> Bitutil.Bitstring.t -> Target.Device.disposition
(** The single-packet shot every validation check fires: inject [bits]
    exactly as given — the packet the specification judges — back-to-back
    at the generator's injection point, skipping stream configuration
    and the management protocol. Counts toward the cumulative
    [generator/sent] metric. The caller owns quiescing, one per batch
    (see {!Target.Device.inject_batch} and [Fuzz.Oracle]). *)

val clear : t -> unit
(** Drop the configured streams. *)
