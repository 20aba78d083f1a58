(** A reusable fixed-size pool of worker domains with a chunked work
    queue.

    The pool is the repo's one parallel-execution primitive (OCaml 5
    [Domain] + [Mutex]/[Condition]/[Atomic]; no external dependency).
    Callers submit a batch of work with {!run} or {!map_chunks}; the
    calling domain always participates as worker [0], and [jobs - 1]
    pre-spawned domains serve workers [1 .. jobs - 1]. A pool with
    [jobs = 1] spawns no domains at all and degenerates to plain
    sequential execution, so code written against the pool has no
    threading cost on the default path.

    Determinism contract: {!map_chunks} writes each result into the slot
    of its input index, so the result array is a pure function of the
    input and [f] — never of which worker ran which chunk or in what
    order. Any cross-worker communication beyond that is the caller's
    business and should be confined to explicit barriers (run the pool in
    rounds and merge between calls in a fixed order — see
    [Fuzz.Campaign]) or to mutex-guarded accumulators whose contents are
    re-ordered deterministically before use.

    The pool is not reentrant: calling {!run} or {!map_chunks} from
    inside a task deadlocks. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [max 1 jobs] workers ([jobs - 1] domains). Values
    above the host's core count work but cannot run concurrently. *)

val close : t -> unit
(** Shut the worker domains down and join them. Idempotent. A pool must
    be closed or the spawned domains keep the process alive; prefer
    {!with_pool}. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and closes it on exit,
    exceptional or not. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f w] once for each of the pool's workers [w]
    (numbered from 0), concurrently, and returns when all are finished. The calling domain
    executes [f 0]. If any invocation raises, one of the exceptions is
    re-raised (with its backtrace) after all workers finish. *)

val map_chunks :
  t -> ?chunk:int -> (worker:int -> int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_chunks t f xs] is [Array.mapi]-with-a-worker-id over the pool:
    workers claim contiguous chunks of [chunk] indices (default 16) from
    a shared atomic cursor and apply [f ~worker i xs.(i)] to each
    element. Results land at their input index, so the output equals the
    sequential map regardless of scheduling. [worker] identifies the
    executing worker for per-worker state, such as the replica array
    [Netdebug.Usecases.Functional] and [Net.Fleet] build before the pool
    runs. *)
