(** Query planner: lowers a parsed SELECT into a {!Plan.t}.

    Pipeline: qualify column references → split the WHERE conjunction →
    choose per-table access paths (B+-tree index for equality / range /
    IN-list / prefix-LIKE predicates, else sequential scan) → greedy join
    ordering (hash joins on equi-predicates, nested loops otherwise) →
    aggregation rewriting → sort / project / distinct / limit. *)

exception Plan_error of string

type catalog = {
  find_table : string -> Table.t option;
  stats : Stats.t;  (** per-column statistics cache driving estimates *)
}

val make_catalog : (string -> Table.t option) -> catalog

val estimate_plan : catalog -> Plan.t -> int
(** Output-cardinality estimate for a physical plan node: scans are
    statistics-backed (histograms for literal-bounded index ranges,
    distinct counts for point lookups); operators above them apply coarse
    fixed selectivities. Drives the lint pass's row-explosion check and
    the [est=] column of EXPLAIN ANALYZE. *)

val annotate_estimates : catalog -> Plan.annotated -> unit
(** Set [an_est] on every node of an executed operator tree. Run it only
    where the tree is captured or rendered: execution never estimates. *)

val set_staircase : bool -> unit
(** Globally enable/disable Staircase_join selection (on by default) —
    benchmark/test hook for measuring the structural join against the
    cross-product-plus-filter plan it replaces. *)

val like_prefix_successor : string -> string option
(** Smallest string strictly greater than every string starting with the
    given prefix (the exclusive upper bound of a prefix-LIKE index range):
    trailing ['\xff'] bytes are dropped and the last remaining byte
    incremented. [None] when the prefix is all ['\xff'] — the range has no
    finite upper bound. *)

val plan_select : catalog -> Sql_ast.select -> Plan.t
val plan_query : catalog -> Sql_ast.query -> Plan.t
(** A UNION ALL of selects becomes {!Plan.Union_all}. *)
