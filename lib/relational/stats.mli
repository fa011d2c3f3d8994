(** Per-column statistics (ANALYZE) consumed by the planner's cardinality
    estimates: distinct counts, null fractions, min/max, and equi-width
    histograms over numeric columns. Maintained incrementally by bulk
    loads ({!fold_range}); re-scanned only when the row count drifts
    through channels the fold never saw. *)

type histogram = {
  h_lo : float;
  h_hi : float;
  h_counts : int array;  (** equi-width buckets over [[h_lo, h_hi]] *)
  h_total : int;  (** finite numeric values counted *)
}

type column_stats = {
  cs_distinct : int;
  cs_nulls : int;
  cs_min : Value.t;  (** [Null] when the column is all-NULL or empty *)
  cs_max : Value.t;
  cs_hist : histogram option;  (** numeric columns only *)
}

type table_stats = { ts_rows : int; ts_columns : column_stats array }

type t
(** Statistics registry keyed by table name. *)

val create : unit -> t

val on_change : t -> (string -> unit) -> unit
(** Register a listener fired with the table name whenever that table's
    statistics change materially (a re-analyze after drift, or an
    incremental fold that moved the row count more than ~20% since the
    last notification). The database invalidates the plan cache here. *)

val material : then_:int -> now:int -> bool
(** Has a row count drifted materially, by more than ~20% of [then_]?
    The one freshness rule: statistics re-analyze on it, and the plan
    cache drops a plan planned against [then_] rows on it. *)

val analyze_table : Table.t -> table_stats
(** One full scan; does not touch the registry. *)

val get : t -> Table.t -> table_stats
(** Cached; re-analyzed only when the live row count drifted more than 20%
    from what the registry has absorbed (bulk loads keep it current via
    {!fold_range}, so they never trigger the re-scan). *)

val fold_range : t -> Table.t -> base:int -> added:int -> unit
(** Fold the appended row range [[base, base+added)] into the table's
    existing statistics in one pass over just those rows — the bulk-load
    finish hook. No-op for tables never analyzed. *)

val refresh : t -> Table.t -> unit
(** Re-analyze one table unconditionally, replacing whatever the registry
    held — recovery uses this for tables the WAL replay touched. Fires no
    change notification (recovery runs before any plan is cached). *)

val export : t -> string
(** Serialize the raw accumulators (distinct sets/sketches, histograms,
    widening state) for the durable checkpoint. The accumulators cannot
    be reproduced by a re-scan — histogram widening is order-dependent —
    so persisting them is what makes a reopened database plan
    byte-identically. *)

val import : t -> string -> unit
(** Replace the registry's contents with a blob from {!export}. The
    empty string imports as an empty registry.
    @raise Codec.Corrupt on malformed input. *)

val eq_selectivity : table_stats -> column:int -> float
(** Estimated fraction of rows kept by an equality predicate on the
    column: [1 / distinct]. *)

val range_selectivity :
  table_stats ->
  column:int ->
  lower:(Value.t * bool) option ->
  upper:(Value.t * bool) option ->
  float
(** Estimated fraction of rows inside the (possibly one-sided) range,
    from the column's histogram when it has one and the bounds are
    numeric; 1/4 (the pre-statistics fixed guess) otherwise. *)

val null_fraction : table_stats -> column:int -> float

val hist_to_string : histogram -> string
(** One digit per bucket, proportional to the bucket's share of the
    fullest ([.] for empty); prefixed with the covered range. *)

val to_string : table_stats -> Schema.t -> string
