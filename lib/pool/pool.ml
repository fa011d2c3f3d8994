(* Single-writer / many-reader store pool over OCaml 5 domains.

   Isolation is by replica, not by sharing: the primary store is only
   ever touched under [write_lock] (writers and observability handlers),
   and each reader domain acquires a whole private [Store.t] replica
   rebuilt from the primary's latest snapshot — the scheme header +
   relational dump, which round-trips byte-exactly (PR 7) — so queries
   on a replica answer identically to the primary at the epoch the
   snapshot was taken. Readers therefore run with NO shared mutable
   state below the (already domain-safe) Metrics/Trace registries:
   there is nothing to race on.

   Epochs give snapshot isolation: [apply] runs the mutation on the
   primary under the write lock, re-dumps it, and atomically installs
   (snapshot, epoch+1). A replica acquired afterwards is rebuilt from
   the new snapshot; one acquired before keeps answering from the old
   image. A reader never observes a half-applied bulk load, because the
   snapshot string is only ever replaced whole, after the load
   committed.

   The free list is permit-counted: [acquire] blocks while [capacity]
   replicas are out. A replica returned by [release] is cached with the
   epoch it serves; [discard] (used when a reader fails) returns only
   the permit, so a possibly-poisoned store is dropped on the floor and
   the next acquire builds a fresh one from the snapshot. Either way
   the permit always comes back — acquire/release/validate cannot leak
   a slot. *)

module Store = Xmlstore.Store
module Metrics = Relstore.Metrics

type replica = { r_store : Store.t; r_epoch : int }

type t = {
  capacity : int;  (* reader permits = max replicas alive at once *)
  dtd : Xmlkit.Dtd.t option;  (* replicas of an inline-scheme store need it *)
  primary : Store.t;
  write_lock : Mutex.t;  (* serializes apply/with_primary on the primary *)
  lock : Mutex.t;  (* guards snapshot/epoch/free/outstanding *)
  cond : Condition.t;  (* signaled when a permit returns *)
  mutable snapshot : string;  (* latest committed image *)
  mutable epoch : int;
  mutable free : replica list;  (* idle replicas, newest first, maybe stale *)
  mutable outstanding : int;  (* permits currently held by readers *)
}

let gauge_state t =
  (* caller holds t.lock *)
  Metrics.set_gauge "pool.readers" t.capacity;
  Metrics.set_gauge "pool.outstanding" t.outstanding;
  Metrics.set_gauge "pool.idle_replicas" (List.length t.free)

let create ?(readers = 4) ?dtd primary =
  if readers < 1 then invalid_arg "Pool.create: readers must be >= 1";
  let t =
    {
      capacity = readers;
      dtd;
      primary;
      write_lock = Mutex.create ();
      lock = Mutex.create ();
      cond = Condition.create ();
      snapshot = Store.snapshot primary;
      epoch = 0;
      free = [];
      outstanding = 0;
    }
  in
  Mutex.protect t.lock (fun () -> gauge_state t);
  t

let size t = t.capacity
let epoch t = Mutex.protect t.lock (fun () -> t.epoch)
let idle_replicas t = Mutex.protect t.lock (fun () -> List.length t.free)
let outstanding t = Mutex.protect t.lock (fun () -> t.outstanding)
let scheme t = Store.scheme t.primary

(* ------------------------------------------------------------------ *)
(* Reader side *)

let replica_label t = Store.metrics_label t.primary ^ "/replica"

(* Take a permit and the freshest idle replica (if any), plus the
   snapshot to rebuild from if it is stale. Blocks while all permits
   are out. *)
let acquire t =
  let cached, snap, ep =
    Mutex.protect t.lock (fun () ->
        while t.outstanding >= t.capacity do
          Condition.wait t.cond t.lock
        done;
        t.outstanding <- t.outstanding + 1;
        let cached =
          match t.free with
          | r :: rest ->
            t.free <- rest;
            Some r
          | [] -> None
        in
        gauge_state t;
        (cached, t.snapshot, t.epoch))
  in
  match cached with
  | Some r when r.r_epoch = ep ->
    Metrics.incr "pool.acquire.reuse";
    r
  | stale ->
    (* Rebuild outside the pool lock: parsing the dump is the expensive
       part and must not serialize other readers. *)
    (match stale with
    | Some _ -> Metrics.incr "pool.acquire.refresh"
    | None -> Metrics.incr "pool.acquire.build");
    Metrics.timed "pool.replica_build" (fun () ->
        { r_store = Store.of_snapshot ?dtd:t.dtd ~metrics_label:(replica_label t) snap;
          r_epoch = ep })

let release t r =
  Mutex.protect t.lock (fun () ->
      t.outstanding <- t.outstanding - 1;
      (* cache at most [capacity] idle replicas; drop the rest *)
      if List.length t.free < t.capacity then t.free <- r :: t.free;
      gauge_state t;
      Condition.signal t.cond)

(* Return only the permit: the replica may be mid-mutation after a
   reader exception, so it is dropped rather than cached. *)
let discard t =
  Metrics.incr "pool.discard";
  Mutex.protect t.lock (fun () ->
      t.outstanding <- t.outstanding - 1;
      gauge_state t;
      Condition.signal t.cond)

let with_replica t f =
  let r = acquire t in
  match f r with
  | v ->
    release t r;
    v
  | exception e ->
    discard t;
    raise e

let with_reader t f = with_replica t (fun r -> f r.r_store)

(* The epoch returned is the replica's own: the snapshot that produced the
   answer, whatever commits landed while the query ran. *)
let query ?analyze t doc xpath =
  Metrics.timed "pool.query" (fun () ->
      with_replica t (fun r -> (Store.query ?analyze r.r_store doc xpath, r.r_epoch)))

(* ------------------------------------------------------------------ *)
(* Writer side *)

(* Run [f] on the primary under the write lock without publishing a new
   snapshot: for reads of primary state (stats, slow log, metrics
   endpoints) and for mutations that must stay invisible to the pool
   until a later [apply]. *)
let with_primary t f = Mutex.protect t.write_lock (fun () -> f t.primary)

(* The writer path: mutate the primary, then publish the committed image
   as a new epoch. The snapshot is taken while still holding the write
   lock (no writer can interleave), and installed under the pool lock as
   one assignment — readers see either the old epoch or the new one,
   never a partial image. *)
let commit t f =
  Mutex.protect t.write_lock (fun () ->
      let v = f t.primary in
      let snap = Metrics.timed "pool.snapshot" (fun () -> Store.snapshot t.primary) in
      let epoch =
        Mutex.protect t.lock (fun () ->
            t.snapshot <- snap;
            t.epoch <- t.epoch + 1;
            t.epoch)
      in
      Metrics.incr "pool.commit";
      (v, epoch))

let apply t f = fst (commit t f)

(* The epoch returned is the one this load published, not whatever a
   concurrent commit has made current since. *)
let load_string ?name t xml = commit t (fun store -> Store.add_string ?name store xml)

(* Pre-register the pool's telemetry series so a scrape of an idle pool
   already lists them. *)
let declare_series () =
  Metrics.with_label "" (fun () ->
      List.iter
        (fun name -> Metrics.incr ~by:0 name)
        [
          "pool.acquire.reuse"; "pool.acquire.refresh"; "pool.acquire.build";
          "pool.discard"; "pool.commit";
        ])
