(** Common interface implemented by every shredding scheme. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database

exception Shred_error of string

(** Result of a translated path query. [values] are XPath string-values in
    document order — the unit of comparison against the native evaluator.
    [fallback] marks paths outside the translatable subset, answered by
    reconstructing the document and evaluating natively. *)
type query_result = {
  values : string list;
  nodes : Dom.node list Lazy.t;  (** reconstructed result subtrees *)
  sql : string list;  (** every SQL statement executed *)
  joins : int;
  fallback : bool;
}

module type MAPPING = sig
  val id : string
  val description : string

  val create_schema : Db.t -> unit
  (** Create the mapping's base tables (idempotent). *)

  val create_indexes : Db.t -> unit
  (** Recommended secondary indexes; separate so benchmark F3 can measure
      indexed vs unindexed. *)

  val shred_bulk : Db.session -> doc:int -> Index.t -> unit
  (** Store one document under document id [doc] through a bulk-load
      session (deferred bottom-up index builds; see
      {!Relstore.Database.load_session}). The only shred entry. *)

  val reconstruct : Db.t -> doc:int -> Dom.t
  val query : Db.t -> doc:int -> Xpathkit.Ast.path -> query_result
end

type mapping = (module MAPPING)

(** {1 Helpers shared by the scheme implementations} *)

val err : ('a, unit, string, 'b) format4 -> 'a
(** @raise Shred_error *)

val fallback_query :
  reconstruct:(Db.t -> doc:int -> Dom.t) -> Db.t -> doc:int -> Xpathkit.Ast.path -> query_result
(** Reconstruct, evaluate natively, flag the result. *)

val traced_translate : scheme:string -> (unit -> 'a) -> 'a
(** Run a scheme's path→SQL translation phase under a ["translate"] trace
    span carrying a [scheme] attribute. Exceptions propagate. *)

val run_built :
  Db.t ->
  ?joins:int ref ->
  sqls:string list ref ->
  ?params:Relstore.Value.t array ->
  Relstore.Sql_ast.query ->
  Relstore.Executor.result
(** Execute a builder-constructed query through the prepared-plan layer.
    Records the rendered statement text into [sqls] and, when [joins] is
    given, adds the plan's join count. The text doubles as the plan-cache
    key, so queries whose variable parts are bound parameters plan once. *)

val query_built :
  Db.t -> ?params:Relstore.Value.t array -> Relstore.Sql_ast.query -> Relstore.Executor.result
(** Same, for internal fetches that do not report statement text. *)

(** One statement execution, as observed by {!run_built} under an active
    capture sink. *)
type capture = {
  cap_sql : string;  (** rendered statement text (plan-cache key) *)
  cap_params : Relstore.Value.t array;  (** bound parameters, [[||]] if none *)
  cap_plan : Relstore.Plan.t;
  cap_annot : Relstore.Plan.annotated;  (** EXPLAIN ANALYZE operator tree, estimates filled *)
}

val collect_captures : (unit -> 'a) -> 'a * capture list
(** Run [f] with an ambient capture sink installed: every query the schemes
    execute through {!run_built} during [f] is captured with its executed
    operator tree, and the captures are returned in execution order alongside [f]'s result. Nests
    (the outer sink is restored on exit); not thread-safe. *)

val collect_analysis : (unit -> 'a) -> 'a * (string * Relstore.Plan.annotated) list
(** {!collect_captures} restricted to [(statement text, operator tree)]
    pairs — the EXPLAIN ANALYZE view. *)

val acol : string -> string -> Relstore.Sql_ast.expr
(** [acol alias column] — alias-qualified column reference. *)

val int_column : Relstore.Executor.result -> int list
val string_column : Relstore.Executor.result -> string list

val kind_code : Index.kind -> string
(** 'e' element, 'a' attribute, 't' text, 'c' comment, 'p' PI, 'd'
    document. *)

val sanitize : string -> string
(** Tag name to SQL identifier fragment; callers uniquify collisions. *)
