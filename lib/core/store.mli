(** An XML store backed by a relational database through a chosen shredding
    scheme.

    {[
      let store = Store.create "edge" in
      let doc = Store.add_string store "<site>...</site>" in
      Store.query_values store doc "/site/people/person/name"
    ]} *)

exception Store_error of string

type t
type doc_id = int

val schemes : unit -> string list
(** Available scheme ids: ["edge"; "binary"; "interval"; "dewey";
    "universal"; "inline"]. *)

val create :
  ?dtd:Xmlkit.Dtd.t ->
  ?validate:bool ->
  ?indexes:bool ->
  ?metrics_label:string ->
  ?durable:string ->
  string ->
  t
(** [create scheme] builds an empty store. The ["inline"] scheme requires
    [~dtd]. [~validate:true] checks each document against the DTD before
    storing. [~indexes:false] skips the scheme's recommended secondary
    indexes (benchmark F3 measures the difference). Documents shred
    through a bulk-load session: appends with deferred index maintenance,
    each B+-tree built bottom-up when the document finishes (benchmark F11
    measures the rate). [~metrics_label] overrides the
    auto-generated ["scheme#N"] label that keeps this instance's metrics
    series separate from other live stores'. [~durable:dir] roots the
    store in a fresh directory (paged checkpoints + write-ahead log):
    each document load commits as one WAL transaction, {!checkpoint}
    writes a page image, and {!open_durable} reopens the directory with
    crash recovery. Fails if [dir] already holds a store. *)

val scheme : t -> string
val database : t -> Relstore.Database.t
(** The underlying relational database (inspection, raw SQL). *)

val metrics_label : t -> string
(** The label this store's operations record metrics under; pass it to
    [Relstore.Metrics.report ~label] (or [counter]/[histogram_list]) to
    read only this instance's series. *)

(** {1 Documents} *)

val add_document : ?name:string -> t -> Xmlkit.Dom.t -> doc_id
val add_string : ?name:string -> t -> string -> doc_id
val add_file : ?name:string -> t -> string -> doc_id

type doc_info = {
  doc : doc_id;
  doc_name : string option;
  root_tag : string;
  nodes : int;
  depth : int;
}

val documents : t -> doc_info list
val get_document : t -> doc_id -> Xmlkit.Dom.t
(** Reconstruct the full document from its relations. *)

(** {1 Queries} *)

type result = {
  values : string list;  (** XPath string-values, document order *)
  nodes : Xmlkit.Dom.node list Lazy.t;  (** reconstructed result subtrees *)
  sql : string list;  (** SQL statements executed *)
  joins : int;
  fallback : bool;
      (** true when the path was outside the translatable subset and was
          answered by reconstructing the document and evaluating natively *)
  analyzed : (string * Relstore.Plan.annotated) list;
      (** with [~analyze:true], one [(statement text, executed operator
          tree)] pair per SQL statement, in execution order (EXPLAIN
          ANALYZE); empty otherwise *)
  gc_minor_bytes : int;
      (** bytes allocated in the minor heap while answering
          ([Gc.quick_stat] delta; also recorded as the
          [store.query.minor_bytes] counter) *)
  gc_major_bytes : int;
      (** bytes promoted to or allocated in the major heap
          ([store.query.major_bytes]) *)
}

val query : ?analyze:bool -> t -> doc_id -> string -> result
(** [query t doc xpath] evaluates an absolute XPath location path.
    [~analyze:true] additionally instruments every SQL statement the
    translation executes and fills [analyzed] with per-operator actual
    rows, next-calls, and wall-clock. *)

(** {1 Static analysis}

    Each stored document carries a Strong DataGuide, built at shred time
    and invalidated by in-place updates. {!query} consults it to
    short-circuit provably-empty paths to an empty result without
    executing any SQL (counted by the [store.query.fastpath_empty]
    metric); the linter uses it as the XPath-vs-schema oracle. *)

val set_empty_fastpath : t -> bool -> unit
(** Toggle the statically-empty short-circuit (on by default); results
    are identical either way — the benchmark measures the difference. *)

val empty_fastpath : t -> bool

val dataguide : t -> doc_id -> Xmlkit.Dataguide.t
(** The document's DataGuide; rebuilt by reconstruction when no cached
    guide survives (loaded stores, updated documents). *)

val lint_query : ?schema_check:bool -> t -> doc_id -> string -> Lintkit.Lint.report
(** Run the query through the scheme with the capture sink armed and lint
    everything that executed: each statement re-parsed into the SQL pass,
    its physical plan through the plan pass, and (unless
    [~schema_check:false]) the XPath against the document's DataGuide. *)

val lint_workload : ?schema_check:bool -> t -> doc_id -> string list -> Lintkit.Lint.report list

val query_values : t -> doc_id -> string -> string list
val query_nodes : t -> doc_id -> string -> Xmlkit.Dom.node list
val query_count : t -> doc_id -> string -> int
val query_all : t -> string -> (doc_id * result) list
(** Evaluate one path against every stored document. *)

val translate_sql : t -> doc_id -> string -> string list

(** {1 Slow-query log}

    When a threshold is armed, every {!query} whose wall-clock meets it is
    retained (most recent first, bounded — 32 entries by default, see
    {!set_slow_log_capacity}) with its statement texts, bound parameters,
    plans, executed operator trees, and GC allocation deltas. *)

type slow_statement = {
  ss_sql : string;  (** statement text (plan-cache key) *)
  ss_params : Relstore.Value.t array;  (** bound parameters *)
  ss_plan : string;  (** rendered plan tree (EXPLAIN) *)
  ss_annot : Relstore.Plan.annotated;  (** executed operator tree (ANALYZE) *)
}

type slow_entry = {
  se_xpath : string;
  se_doc : doc_id;
  se_scheme : string;
  se_total_ns : int;  (** whole-query wall-clock *)
  se_fallback : bool;
  se_minor_bytes : int;  (** GC allocation attributed to the query *)
  se_major_bytes : int;
  se_statements : slow_statement list;
}

val set_slow_threshold : t -> float option -> unit
(** [set_slow_threshold t (Some ms)] arms the log for queries taking at
    least [ms] milliseconds; [None] disarms it (entries are kept). *)

val set_slow_log_capacity : t -> int -> unit
(** Resize the retention bound (default 32). Shrinking evicts the oldest
    entries immediately; 0 retains nothing. Negative raises
    {!Store_error}. *)

val slow_log_capacity : t -> int

val slow_threshold_ms : t -> float option
val slow_log : t -> slow_entry list
(** Retained entries, most recent first. *)

val clear_slow_log : t -> unit

(** {1 In-place updates}

    Supported by the [edge], [dewey], and [interval] schemes; the cost
    record exposes how many rows each scheme had to touch — the
    machine-independent measure behind experiment F5 (Dewey appends touch
    only the new subtree; Interval renumbers every following node). *)

type update_cost = { rows_inserted : int; rows_updated : int; rows_deleted : int }

val append_child : t -> doc_id -> parent:string -> Xmlkit.Dom.node -> update_cost
(** [append_child t doc ~parent node] appends [node] (an element subtree)
    as the last child of the single element selected by the XPath
    [parent]. *)

val delete_matching : t -> doc_id -> string -> update_cost
(** Delete every element (subtree included) selected by the path. *)

(** {1 Statistics and raw SQL} *)

type stats = {
  scheme_id : string;
  document_count : int;
  tables : Relstore.Database.table_stats list;
  total_rows : int;
  total_bytes : int;
  total_index_entries : int;
}

val stats : t -> stats
val sql : t -> string -> Relstore.Database.exec_result
val explain : t -> string -> string

val cache_stats : t -> int * int * int * int
(** Prepared-plan cache [(hits, misses, invalidations, evictions)].
    Translated queries
    bind their variable parts as parameters, so repeated queries and
    {!query_all} across documents reuse one cached plan per statement
    shape. *)

val reset_cache_stats : t -> unit

val set_plan_cache : t -> bool -> unit
(** Disable (and empty) or re-enable the plan cache; query results are
    identical either way. *)

(** {1 Durability}

    A store created with [~durable:dir] lives on disk: every mutation is
    written ahead to [dir/wal.log], a document load is one transaction
    committed (fsync) when the shred finishes, and {!checkpoint} folds
    everything into a double-buffered page image. {!open_durable} reopens
    the directory, replaying the log — a load interrupted mid-document is
    rolled back whole, one that reached its commit is replayed whole. *)

val open_durable : ?dtd:Xmlkit.Dtd.t -> ?validate:bool -> ?metrics_label:string -> string -> t
(** Reopen a durable store directory, running crash recovery as needed.
    The scheme is read from the directory ([inline] still needs its
    DTD passed). *)

val is_durable : t -> bool
val durable_dir : t -> string option

val last_recovery : t -> Relstore.Database.recovery option
(** What recovery did when this store was opened ([None] for in-memory
    stores). *)

val checkpoint : t -> unit
(** Write a full page image and truncate the WAL. No-op in memory. *)

val close : t -> unit
(** {!checkpoint}, then release the directory. No-op in memory. *)

(** {1 Persistence} *)

val save : t -> string -> unit
(** Write the whole store (all tables, data, and index definitions) as a
    SQL script. *)

val load :
  ?dtd:Xmlkit.Dtd.t -> ?validate:bool -> ?metrics_label:string -> scheme:string -> string -> t
(** Reopen a store saved with {!save}. The scheme must match the one the
    dump was produced with ([inline] additionally needs the same DTD). *)

val snapshot : t -> string
(** The whole store as one string: a scheme header line followed by the
    relational dump ({!save}'s format). Dump → restore round-trips every
    scheme byte-exactly, so a store rebuilt from the snapshot answers
    queries identically. This is the store pool's isolation mechanism
    ({!Storepool.Pool}): each reader domain executes against a private
    replica built from the writer's latest snapshot. *)

val of_snapshot : ?dtd:Xmlkit.Dtd.t -> ?metrics_label:string -> string -> t
(** Rebuild an in-memory store from {!snapshot} output ([inline] needs
    the same DTD the original was created with). *)

(** {1 Observability endpoints}

    The GET endpoints over the store's in-memory observability state,
    served by the store pool's data plane (Storepool.Service):

    {v
    GET /metrics   Prometheus text exposition (lint-checked before serving)
    GET /healthz   JSON health: store open, WAL writable, checkpoint age
    GET /slowlog   JSON slow-query log (?limit=N caps the entries)
    GET /traces    Chrome trace JSON of the span ring buffer
    GET /stats     JSON table, cache, and document statistics
    v} *)

val handle : t -> Servekit.Http.request -> Servekit.Http.response
(** The observability request handler; the data-plane service delegates
    its GET endpoints to it. *)

val declare_storage_series : unit -> unit
(** Pre-register the storage-telemetry series catalog ([db.wal.*],
    [db.checkpoint.*], [db.recovery.*], [buffer_pool.*], [db.btree.*]) so a
    scrape of an idle store already lists them. The data-plane server does
    this when it binds; callers that render
    {!Relstore.Metrics.prometheus} without a server call it themselves. *)
