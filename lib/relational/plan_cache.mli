(** LRU cache of compiled SELECT plans, keyed by statement text.

    A hit skips lexing, parsing, and planning entirely. Entries remember
    the row count of every referenced table at plan time and are dropped
    when any of them drifts by more than ~20% (the freshness rule Stats
    uses), since join order and access-path choices depend on those
    counts. Any DDL clears the whole cache: index changes alter which
    plans are even executable. *)

type t

val create : ?capacity:int -> unit -> t
(** LRU capacity defaults to 1024 entries. *)

val set_enabled : t -> bool -> unit
(** Disabling empties the cache (counted as one invalidation when it
    held entries) and makes {!find}/{!add} no-ops; results are identical
    either way. *)

val clear : t -> unit
(** Drop every entry — the DDL / statistics-change hook. Counted as one
    invalidation when the cache held entries. *)

val find : t -> row_count:(string -> int option) -> string -> Plan.t option
(** Look up a plan by statement text, revalidating the entry's
    remembered row counts through [row_count] ([None] = table dropped).
    A stale entry is removed and the lookup returns [None]. *)

val add : t -> string -> tables:(string * int) list -> Plan.t -> unit
(** Remember a plan under its statement text, fingerprinted with the
    [(table, row count)] pairs the planner saw. *)

val stats : t -> int * int * int * int
(** [(hits, misses, invalidations, evictions)]. The categories are
    mutually exclusive: each {!find} outcome counts as exactly one hit
    (fresh entry), one miss (no entry), or one invalidation (stale entry
    dropped — not also a miss); evictions are capacity-driven LRU
    removals from {!add}; and each {!clear} or disabling {!set_enabled}
    of a non-empty cache is one invalidation. So [hits + misses +
    invalidations] from {!find} sums to the number of lookups, and hit
    rate is well-defined as [hits / lookups]. *)

val reset_stats : t -> unit

val size : t -> int
(** Entries currently cached. *)
