(** Query plans. The planner lowers a parsed SELECT into this tree; the
    executor interprets it with the iterator model. *)

type agg = {
  agg_func : string;  (** count | sum | avg | min | max, lowercased *)
  agg_distinct : bool;
  agg_star : bool;
  agg_arg : Sql_ast.expr option;
}

type t =
  | Seq_scan of { table : string; alias : string }
  | Index_scan of {
      table : string;
      alias : string;
      index_name : string;
      lower : (Sql_ast.expr * bool) option;
          (** constant bound over the leading index column; bool = inclusive *)
      upper : (Sql_ast.expr * bool) option;
    }
  | Index_probes of {
      table : string;
      alias : string;
      index_name : string;
      keys : Sql_ast.expr list;  (** IN-list probe keys *)
    }
  | Filter of Sql_ast.expr * t
  | Project of (Sql_ast.expr * string) list * t
  | Nl_join of t * t  (** cross product; equi-joins become {!Hash_join} *)
  | Hash_join of {
      build : t;
      probe : t;
      build_keys : Sql_ast.expr list;
      probe_keys : Sql_ast.expr list;
    }
  | Staircase_join of {
      left : t;  (** output rows are left-row ++ right-row, like the other joins *)
      right : t;
      desc_on_left : bool;  (** which side carries the descendant key *)
      desc_key : Sql_ast.expr;  (** e.g. [d.pre], over the descendant side *)
      anc_lower : Sql_ast.expr;  (** e.g. [a.pre], over the ancestor side *)
      anc_upper : Sql_ast.expr;  (** e.g. [a.pre + a.size] *)
      lower_strict : bool;  (** [key > lower] vs [key >= lower] *)
      upper_strict : bool;  (** [key < upper] vs [key <= upper] *)
    }
      (** Structural (interval containment) join: one ordered merge over the
          descendant keys and ancestor [lower .. upper] ranges, replacing the
          cross product + range filter the containment predicate would
          otherwise plan as. *)
  | Aggregate of { group_by : Sql_ast.expr list; aggregates : agg list; input : t }
  | Sort of Sql_ast.order_item list * t
  | Distinct of t
  | Limit of int * t
  | Union_all of t list

val agg_to_string : agg -> string

val node_line : t -> string
(** One operator's own EXPLAIN line, without its children. *)

val to_string : t -> string
(** Rendered plan tree (EXPLAIN output). *)

(** {1 EXPLAIN ANALYZE}

    One mutable node per executed operator, filled in by the executor on
    every run ({!Executor.run}). Counters are inclusive: a node's
    wall-clock covers its open and every batch pulled from it, children
    included, so the root's time is the whole execution. Children appear
    in execution order (a hash join opens its build side first). *)

type annotated = {
  an_node : t;  (** the executed operator *)
  mutable an_children : annotated list;
  mutable an_rows : int;  (** rows produced *)
  mutable an_batches : int;  (** non-empty batches produced *)
  mutable an_ns : int;  (** inclusive wall-clock (open + pulls), ns *)
  mutable an_est : int option;
      (** planner's cardinality estimate; filled only where a tree is
          captured or rendered ({!Planner.annotate_estimates}) *)
}

val annot : t -> annotated
(** Fresh zeroed node for an operator (used by the executor). *)

val annotated_op : annotated -> string
(** The node's operator line ({!node_line} of [an_node]). *)

val misestimation : est:int -> actual:int -> float
(** How far off an estimate was, as a ratio >= 1 (both sides floored at
    one row). *)

val annotated_to_string : annotated -> string
(** Rendered operator tree with actual row counts and timings. *)

val fold_annotated : ('a -> annotated -> 'a) -> 'a -> annotated -> 'a
(** Pre-order fold over the operator tree. *)

val node_kind : t -> string
(** The operator's kind ("SeqScan", "IndexScan", "HashJoin", ...): the
    first word of its EXPLAIN line. *)

val record_spans : annotated -> unit
(** Bridge an executed operator tree into the active trace as synthesized
    finished spans under the innermost open span (no-op outside a
    recorded trace), each named by {!node_kind}. Start offsets are
    synthesized — siblings laid out sequentially, clamped inside the
    parent interval — since the annotated tree only records inclusive
    durations. *)

val annotated_operator_count : annotated -> int

val count_joins : t -> int
(** Join operators in the plan (benchmark T4's complexity measure). *)

val count_index_scans : t -> int
