(** Single-writer / many-reader store pool: snapshot-isolated parallel
    query execution on OCaml 5 domains.

    One primary {!Xmlstore.Store.t} takes every mutation (serialized by
    a write lock); reader domains {!acquire} private replicas rebuilt
    from the primary's latest committed snapshot (scheme header +
    relational dump, which round-trips byte-exactly), so queries run
    with no shared mutable store state at all and answer byte-identically
    to the primary. {!apply} publishes each mutation as a new epoch:
    readers see either the pre-mutation or post-mutation image, never a
    torn one.

    The replica lifecycle follows the engine-pool
    provision/acquire/release/validate shape: permits bound live
    replicas, {!release} returns a healthy replica to the cache
    (revalidated against the current epoch on next acquire), and a
    reader failure {!discard}s the replica but always returns the
    permit — slots cannot leak.

    Telemetry (process-wide label): [pool.acquire.reuse/refresh/build],
    [pool.discard], [pool.commit] counters; [pool.query],
    [pool.replica_build], [pool.snapshot] histograms; [pool.readers],
    [pool.outstanding], [pool.idle_replicas] gauges. *)

type t

type replica
(** A private store replica plus the epoch it serves. *)

val create : ?readers:int -> ?dtd:Xmlkit.Dtd.t -> Xmlstore.Store.t -> t
(** [create store] wraps [store] as the pool's primary. [readers]
    (default 4, must be >= 1) bounds concurrently-held replicas. Pass
    [dtd] when the store uses the inline scheme (replicas need it to
    rebuild). The primary must afterwards only be touched through
    {!apply} / {!with_primary}. *)

val size : t -> int
(** The reader-permit bound. *)

val epoch : t -> int
(** Epoch of the latest committed snapshot (0 at create; +1 per
    {!apply}). *)

val idle_replicas : t -> int
val outstanding : t -> int
val scheme : t -> string

val acquire : t -> replica
(** Take a permit and a replica at the current epoch, rebuilding from
    the snapshot if no fresh cached replica exists. Blocks while all
    permits are out. Pair with {!release} or {!discard}. *)

val release : t -> replica -> unit
(** Return a healthy replica (and its permit) to the pool. *)

val discard : t -> unit
(** Return only the permit, dropping the replica (used after a reader
    failure left it suspect). *)

val with_reader : t -> (Xmlstore.Store.t -> 'a) -> 'a
(** [with_reader t f] = acquire; run [f] on the replica; release on
    success, discard on exception (re-raised). The permit is returned on
    every path. *)

val query :
  ?analyze:bool -> t -> Xmlstore.Store.doc_id -> string -> Xmlstore.Store.result * int
(** {!with_reader} around {!Xmlstore.Store.query}, plus the epoch of the
    replica that answered — the snapshot the result comes from, even when
    a commit lands while the query runs. *)

val with_primary : t -> (Xmlstore.Store.t -> 'a) -> 'a
(** Run [f] on the primary under the write lock {e without} publishing a
    new snapshot — for reads of primary state (stats, slow log,
    observability endpoints). Mutations made here stay invisible to
    readers until the next {!apply}. *)

val apply : t -> (Xmlstore.Store.t -> 'a) -> 'a
(** The writer path: run the mutation on the primary under the write
    lock, then atomically publish the committed image as a new epoch. *)

val load_string : ?name:string -> t -> string -> Xmlstore.Store.doc_id * int
(** {!apply} around {!Xmlstore.Store.add_string}, plus the epoch this load
    published (not one a concurrent commit published since). *)

val declare_series : unit -> unit
(** Pre-register the [pool.*] counter series at zero so scrapes of an
    idle pool already list them. *)
