(** Lock-free discovery channel for asynchronous shard integration.

    An ['a t] is a multi-producer append-only log built from a single
    atomic list head. Workers {!publish} batches of discoveries
    (coverage labels, corpus entries, divergence sightings) without
    taking any lock — a publish is one [Atomic.compare_and_set] retry
    loop — and each worker absorbs everyone else's discoveries by
    {!drain}ing through a private {!cursor} at whatever cadence suits
    its hot loop. Nothing ever blocks: there is no barrier, no mutex
    and no wait. No library module uses it: [Fuzz.Campaign] integrates
    at round barriers (DESIGN.md §15). Its one caller is the perfbench
    fuzz workload's traced replica.

    Ordering contract: {!drain} returns items in publication order
    (oldest batch first, in-batch order preserved), but publication
    order itself is a race between producers. Consumers must therefore
    be order-insensitive — coverage bitmaps, corpus sets and
    fingerprint dedup all are. *)

type 'a t
(** The shared channel. *)

type 'a cursor
(** A private per-consumer position in the log. *)

val create : unit -> 'a t
(** A fresh, empty channel. *)

val publish : 'a t -> 'a list -> unit
(** [publish t batch] atomically prepends [batch] to the log. Empty
    batches are free (no allocation, no CAS). Safe from any domain. *)

val count : 'a t -> int
(** Total number of items ever published. One atomic load. *)

val cursor : unit -> 'a cursor
(** A fresh cursor positioned before the first item, so the first
    {!drain} returns everything published so far. *)

val drain : 'a t -> 'a cursor -> 'a list
(** [drain t c] returns every item published since the last drain
    through [c] (publication order) and advances [c] past them. When
    nothing is new this is a single atomic load returning [[]]. Safe
    to call concurrently with publishers; each cursor must belong to
    one consumer. *)

val all : 'a t -> 'a list
(** Every item ever published, oldest first, without a cursor. *)
