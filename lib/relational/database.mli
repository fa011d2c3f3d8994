(** Top-level database: a catalog of tables plus SQL entry points. *)

type t

exception Db_error of string

val create : unit -> t

(** {1 Catalog} *)

val find_table : t -> string -> Table.t option
(** Case-insensitive. *)

val get_table : t -> string -> Table.t
(** @raise Db_error when absent. *)

val table_names : t -> string list
val create_table : t -> Schema.t -> Table.t
val drop_table : t -> string -> bool
val catalog : t -> Planner.catalog

val analyze : t -> string -> Stats.table_stats
(** Per-column statistics of a table (cached; refreshed when the row count
    drifts). The planner consults the same cache for its estimates. *)

val analyze_to_string : t -> string -> string

(** {1 Direct row access (load fast path for the shredders)} *)

val insert_row_array : t -> string -> Value.t array -> unit

(** {1 Bulk-load sessions}

    A session appends rows straight into the table arenas with all index
    maintenance deferred: {!finish_session} builds each touched B+-tree
    bottom-up from one sort of the appended (key, rowid) pairs,
    observationally identical to row-at-a-time inserts but much faster.
    Mid-session reads see appended rows through sequential scans but not
    through index probes. DDL composes (it clears the plan cache as
    always; CREATE INDEX on a touched table covers only the
    already-indexed range, the rest is folded in at finish), and
    {!abort_session} drains every touched table back to its pre-session
    length. DELETE/UPDATE on a touched table are rejected until the
    session closes. *)

type session

val load_session : t -> session
val session_db : session -> t

val insert_rows : session -> string -> Value.t array list -> unit
(** Append a batch of rows to a table, index maintenance deferred. *)

val session_insert : session -> string -> Value.t array -> unit
(** Single-row {!insert_rows}. *)

val finish_session : session -> int
(** Build all deferred index entries (one [index.build] trace span per
    table); returns how many rows the session appended. Idempotent. *)

val abort_session : session -> unit
(** Drop every row the session appended, restoring the touched tables
    exactly (the rows were never indexed). Idempotent; a finished
    session cannot be aborted. *)

val with_session : t -> (session -> 'a) -> 'a
(** Run [f] with a fresh session; finish on return, abort on raise. *)

(** {1 SQL execution} *)

type exec_result =
  | Rows of Executor.result  (** SELECT *)
  | Affected of int  (** INSERT / UPDATE / DELETE *)
  | Done of string  (** DDL *)

val exec : ?params:Value.t array -> t -> string -> exec_result
(** Execute one statement. A plan-cache hit on the statement text skips
    lexing, parsing, and planning. [?N] placeholders in the statement bind
    against [params] (1-based). *)

val exec_script : t -> string -> exec_result list
(** Execute a [;]-separated sequence of statements. *)

val query : ?params:Value.t array -> t -> string -> Executor.result
(** Like {!exec} but requires a SELECT. @raise Db_error otherwise. *)

(** {1 Prepared statements and the plan cache}

    A prepared handle pins the parsed query; each execution fetches the
    compiled plan from an LRU cache keyed by statement text. Entries are
    invalidated by any DDL and by table row counts drifting ~20% from what
    the planner saw, so handles never execute stale plans. *)

type prepared

val prepare : t -> string -> prepared
(** Parse and plan a SELECT once. @raise Db_error for non-SELECT input. *)

val prepare_query : t -> Sql_ast.query -> prepared
(** Prepare a query built directly as AST (see {!Sql_build}). *)

val prepared_text : prepared -> string
(** The statement text (also the plan-cache key). *)

val prepared_plan : t -> prepared -> Plan.t
(** The plan the next execution would run (inspection / join counting). *)

val query_prepared : ?params:Value.t array -> t -> prepared -> Executor.result
(** Execute a prepared SELECT with the given parameter bindings. *)

val query_analyzed :
  ?params:Value.t array -> t -> string -> Executor.result * Plan.annotated
(** {!query} plus the executed operator tree: the same execution, whose
    {!Plan.annotated} tree carries actual rows, batches and inclusive
    wall-clock per operator, with the planner's estimates filled in
    (EXPLAIN ANALYZE). Uses the same plan cache as {!query}.
    @raise Db_error for non-SELECT input. *)

val query_prepared_analyzed :
  ?params:Value.t array -> t -> prepared -> Executor.result * Plan.annotated
(** {!query_prepared} with per-operator actuals. *)

val cache_stats : t -> int * int * int * int
(** Plan-cache [(hits, misses, invalidations, evictions)] counters. *)

val reset_cache_stats : t -> unit

val set_plan_cache : t -> bool -> unit
(** Disable (and empty) or re-enable the plan cache; results are identical
    either way. *)

val plan_of : t -> string -> Plan.t
(** The plan a SELECT would run (inspection / join counting), bypassing the
    cache. *)

val explain : t -> string -> string
(** Rendered plan tree. *)

val explain_analyze : ?params:Value.t array -> t -> string -> string
(** Execute the SELECT and render the plan tree with per-operator actuals. *)

(** {1 Statistics and rendering} *)

type table_stats = {
  st_table : string;
  st_rows : int;
  st_bytes : int;
  st_indexes : int;
  st_index_entries : int;
}

val stats : t -> table_stats list
val total_rows : t -> int
val total_bytes : t -> int

val render_result : Executor.result -> string
(** Aligned text table (CLI, examples). *)

(** {1 Persistence} *)

val dump : t -> string
(** A SQL script (CREATE TABLE / INSERT / CREATE INDEX) that {!restore}
    replays into an identical database. *)

val restore : string -> t
(** Replay a dump. Plain VALUES inserts stream through a bulk-load
    session (deferred index maintenance), and every table is analyzed
    once loaded, so the restored database plans from the same full-scan
    statistics as the original. *)

val dump_to_file : t -> string -> unit
val restore_from_file : string -> t

(** {1 Durability}

    A durable database lives in a directory: double-buffered page
    checkpoints plus a write-ahead log carrying everything since the
    last one (see {!Durable}, {!Wal}). Every mutation — SQL statements,
    direct inserts, bulk-load sessions — is logged as it happens; a
    bulk-load session is one WAL transaction whose commit is the fsync
    point, and autocommitted statements reach the OS when they return.
    {!open_durable} recovers: redo replays the log past the checkpoint,
    undo truncates the appended tails of transactions whose commit never
    made it — exactly what a live {!abort_session} would have done. *)

type recovery = {
  rc_scanned : int;  (** WAL records in the valid prefix *)
  rc_redone : int;  (** mutation/DDL records replayed past the checkpoint *)
  rc_undone : int;  (** rows truncated undoing loser transactions *)
  rc_losers : int;  (** transactions with work but no Commit/Abort *)
  rc_torn_bytes : int;  (** torn WAL tail cut back on open *)
}

val open_durable : ?page_size:int -> ?pool_pages:int -> string -> t
(** Open (creating if needed) a durable database directory, running
    recovery as required. After any replay the WAL is folded into a
    fresh checkpoint, so a reopened directory is always clean. *)

val is_durable : t -> bool
val durable_dir : t -> string option

val last_recovery : t -> recovery option
(** What recovery did when this database was opened ([None] for
    in-memory databases). *)

val checkpoint : t -> unit
(** Write a full page image and truncate the WAL. No-op in memory.
    @raise Db_error during an open bulk-load session. *)

val close : t -> unit
(** {!checkpoint}, then release the directory. No-op in memory. *)

val abandon : t -> unit
(** Drop the directory handles without flushing — simulates a crash with
    staged WAL records still in memory (tests, the CLI's --crash-at). *)

val wal_sync : t -> unit
(** Force staged WAL records to disk (fsync) without checkpointing. *)
