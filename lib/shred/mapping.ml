(* Common interface implemented by every shredding scheme. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database

(* Result of running a translated path query. [values] are the XPath
   string-values of the selected nodes in document order — the unit of
   comparison against the native evaluator. [nodes] reconstructs the
   selected subtrees on demand. [sql] lists every SQL statement executed;
   [fallback] is set when the path was outside the translatable subset and
   was answered by reconstructing the document and evaluating natively. *)
type query_result = {
  values : string list;
  nodes : Dom.node list Lazy.t;
  sql : string list;
  joins : int;
  fallback : bool;
}

module type MAPPING = sig
  val id : string
  val description : string

  val create_schema : Db.t -> unit
  (** Create the mapping's base tables (idempotent). *)

  val create_indexes : Db.t -> unit
  (** Create the mapping's recommended secondary indexes; kept separate so
      the benchmark harness can measure indexed vs unindexed (F3). *)

  val shred_bulk : Db.session -> doc:int -> Index.t -> unit
  (** Store one document under document id [doc] through a bulk-load
      session: appends go straight into the table arenas and every index
      is built bottom-up when the caller finishes the session (see
      {!Relstore.Database.load_session}). *)

  val reconstruct : Db.t -> doc:int -> Dom.t
  (** Rebuild the full document from its relations. *)

  val query : Db.t -> doc:int -> Xpathkit.Ast.path -> query_result
  (** Evaluate an absolute XPath location path against the stored form. *)
end

type mapping = (module MAPPING)

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

exception Shred_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Shred_error s)) fmt

(* Fallback evaluation used by every scheme for untranslatable paths:
   reconstruct, evaluate natively, and report it. *)
let fallback_query ~reconstruct db ~doc path =
  Obskit.Trace.with_span ~attrs:[ ("doc", string_of_int doc) ] "xpath.fallback"
  @@ fun () ->
  let dom = reconstruct db ~doc in
  let ix = Index.of_document dom in
  let nodes = Xpathkit.Eval.eval_path (Xpathkit.Eval.root_context ix) path in
  {
    values = List.map (Index.string_value ix) nodes;
    nodes = lazy (List.map (Index.to_node ix) nodes);
    sql = [];
    joins = 0;
    fallback = true;
  }

(* Ambient query capture. When a sink is installed (by [collect_captures],
   via [Store.query ~analyze:true] or an armed slow-query log) every query
   run through [run_built] — in any of the six schemes, with no change to
   their signatures — pushes its statement text, bound parameters, plan
   and executed operator tree (with estimates) here. Dynamically scoped
   *per domain* ([Domain.DLS]): a sink installed on one pool reader never
   captures another domain's queries. *)
type capture = {
  cap_sql : string;
  cap_params : Relstore.Value.t array;
  cap_plan : Relstore.Plan.t;
  cap_annot : Relstore.Plan.annotated;
}

let capture_sink : capture list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let collect_captures f =
  let acc = ref [] in
  let saved = Domain.DLS.get capture_sink in
  Domain.DLS.set capture_sink (Some acc);
  let finally () = Domain.DLS.set capture_sink saved in
  let r = Fun.protect ~finally f in
  (r, List.rev !acc)

let collect_analysis f =
  let r, caps = collect_captures f in
  (r, List.map (fun c -> (c.cap_sql, c.cap_annot)) caps)

(* Wrap a scheme's path→SQL translation phase in a trace span. *)
let traced_translate ~scheme f =
  Obskit.Trace.with_span ~attrs:[ ("scheme", scheme) ] "translate" f

(* Execute a builder-constructed query through the prepared-plan layer:
   the rendered statement text is the plan-cache key, so per-path queries
   whose variable parts are bound parameters plan once and execute many
   times. Records the text into [sqls] and, when [joins] is given, adds
   the plan's join count. The executor always returns its operator tree;
   an installed capture sink keeps it, and a recording trace gets it as
   child spans of a sql.execute span. *)
let run_built db ?joins ~sqls ?params q =
  Relstore.Metrics.timed "mapping.run_built" @@ fun () ->
  let p = Db.prepare_query db q in
  let text = Db.prepared_text p in
  sqls := text :: !sqls;
  let plan = Db.prepared_plan db p in
  (match joins with
  | Some j -> j := !j + Relstore.Plan.count_joins plan
  | None -> ());
  let run () =
    let r, annot = Relstore.Executor.run ?params (Db.catalog db) plan in
    (match Domain.DLS.get capture_sink with
    | Some acc ->
      Relstore.Planner.annotate_estimates (Db.catalog db) annot;
      acc :=
        {
          cap_sql = text;
          cap_params = (match params with Some a -> a | None -> [||]);
          cap_plan = plan;
          cap_annot = annot;
        }
        :: !acc
    | None -> ());
    Relstore.Plan.record_spans annot;
    r
  in
  if Obskit.Trace.recording () then
    Obskit.Trace.with_span ~attrs:[ ("sql", text) ] "sql.execute" run
  else run ()

(* Same, for internal fetches (reconstruction, subtree assembly) that do
   not report statement text. *)
let query_built db ?params q = Db.query_prepared ?params db (Db.prepare_query db q)

(* Alias-qualified column, the common case in translated queries. *)
let acol a c = Relstore.Sql_build.col ~table:a c

(* Single-column int results of a SELECT. *)
let int_column (r : Relstore.Executor.result) =
  List.map
    (fun row ->
      match row.(0) with
      | Relstore.Value.Int i -> i
      | v -> err "expected an integer, got %s" (Relstore.Value.to_string v))
    r.Relstore.Executor.rows

let string_column (r : Relstore.Executor.result) =
  List.map (fun row -> Relstore.Value.to_string row.(0)) r.Relstore.Executor.rows

(* Kind codes shared by the node-table schemes. *)
let kind_code = function
  | Index.Element -> "e"
  | Index.Attribute -> "a"
  | Index.Text -> "t"
  | Index.Comment -> "c"
  | Index.Pi -> "p"
  | Index.Document -> "d"

(* Sanitize a tag into a SQL identifier fragment (Binary mapping table
   names, Universal/Inline column names). Collisions are disambiguated by
   the caller via a registry table. *)
let sanitize tag =
  let buf = Buffer.create (String.length tag) in
  String.iter
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then
        Buffer.add_char buf (Char.lowercase_ascii c)
      else Buffer.add_char buf '_')
    tag;
  let s = Buffer.contents buf in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "t" ^ s else s
