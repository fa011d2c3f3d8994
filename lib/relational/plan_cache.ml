(* LRU cache of compiled SELECT plans, keyed by statement text.

   A hit skips lexing, parsing, and planning entirely. Entries remember the
   row count of every referenced table at plan time and are dropped when
   any of them drifts by more than ~20% (the same freshness rule Stats
   uses), since the planner's join order and access-path choices depend on
   those counts. Any DDL clears the whole cache: index changes alter which
   plans are even executable. *)

type entry = {
  plan : Plan.t;
  tables : (string * int) list;  (* table name, row count when planned *)
  mutable last_used : int;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;  (* capacity-driven LRU removals *)
}

type t = {
  entries : (string, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable enabled : bool;
  stats : stats;
  (* Every public operation takes this lock: the cache is the one piece
     of Database state the pool's observability handlers may poke (clear,
     stats) while a reader domain executes against its replica, and the
     Hashtbl plus stats cells would tear without it. Critical sections
     are bounded table ops — no planning runs under the lock. *)
  lock : Mutex.t;
}

(* The default holds every statement text one Binary '//' query issues
   (about 290 at any auction scale: a few shapes per label table and IN
   arity), so a repeated run does not re-plan what it evicted. *)
let create ?(capacity = 1024) () =
  {
    entries = Hashtbl.create (2 * capacity);
    capacity;
    tick = 0;
    enabled = true;
    stats = { hits = 0; misses = 0; invalidations = 0; evictions = 0 };
    lock = Mutex.create ();
  }

let set_enabled t on =
  Mutex.protect t.lock (fun () ->
      t.enabled <- on;
      if not on && Hashtbl.length t.entries > 0 then begin
        t.stats.invalidations <- t.stats.invalidations + 1;
        Hashtbl.reset t.entries
      end)

let clear t =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.length t.entries > 0 then t.stats.invalidations <- t.stats.invalidations + 1;
      Hashtbl.reset t.entries)

let stats t =
  Mutex.protect t.lock (fun () ->
      (t.stats.hits, t.stats.misses, t.stats.invalidations, t.stats.evictions))

let reset_stats t =
  Mutex.protect t.lock (fun () ->
      t.stats.hits <- 0;
      t.stats.misses <- 0;
      t.stats.invalidations <- 0;
      t.stats.evictions <- 0)

(* Row count within ~20% of the count recorded at plan time? *)
let fresh_count ~then_ ~now =
  let drift = abs (now - then_) in
  drift * 5 <= max 1 then_

(* [row_count name] should return None when the table no longer exists. *)
let find t ~row_count key =
  Mutex.protect t.lock @@ fun () ->
  if not t.enabled then None
  else
    match Hashtbl.find_opt t.entries key with
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      None
    | Some e ->
      let valid =
        List.for_all
          (fun (name, then_) ->
            match row_count name with
            | Some now -> fresh_count ~then_ ~now
            | None -> false)
          e.tables
      in
      if valid then begin
        t.tick <- t.tick + 1;
        e.last_used <- t.tick;
        t.stats.hits <- t.stats.hits + 1;
        Some e.plan
      end
      else begin
        (* counted as an invalidation only — hits/misses/invalidations/
           evictions partition the outcomes, so the four counters can be
           summed and ratioed without double counting *)
        Hashtbl.remove t.entries key;
        t.stats.invalidations <- t.stats.invalidations + 1;
        None
      end

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, lu) when lu <= e.last_used -> ()
      | _ -> victim := Some (key, e.last_used))
    t.entries;
  match !victim with
  | Some (key, _) ->
    Hashtbl.remove t.entries key;
    t.stats.evictions <- t.stats.evictions + 1
  | None -> ()

let add t key ~tables plan =
  Mutex.protect t.lock @@ fun () ->
  if t.enabled then begin
    if (not (Hashtbl.mem t.entries key)) && Hashtbl.length t.entries >= t.capacity then
      evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.entries key { plan; tables; last_used = t.tick }
  end

let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)
