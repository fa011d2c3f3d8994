(* The public facade: an XML store backed by a relational database through a
   chosen shredding scheme. This is the API a downstream application uses;
   everything below it (relational engine, mappings, translators) is
   implementation. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database

exception Store_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Store_error s)) fmt

type doc_id = int

(* One retained slow query: everything needed to diagnose it offline. *)
type slow_statement = {
  ss_sql : string;
  ss_params : Relstore.Value.t array;
  ss_plan : string;  (* rendered plan tree (EXPLAIN) *)
  ss_annot : Relstore.Plan.annotated;  (* executed operator tree (ANALYZE) *)
}

type slow_entry = {
  se_xpath : string;
  se_doc : doc_id;
  se_scheme : string;
  se_total_ns : int;
  se_fallback : bool;
  se_minor_bytes : int;
  se_major_bytes : int;
  se_statements : slow_statement list;
}

let default_slow_log_capacity = 32

type t = {
  db : Db.t;
  mapping : Xmlshred.Mapping.mapping;
  scheme : string;
  dtd : Xmlkit.Dtd.t option;
  validate : bool;
  indexes : bool;
  metrics_label : string;
  mutable next_doc : int;
  mutable slow_threshold_ns : int option;
  mutable slow_capacity : int;  (* retained slow-log entries; oldest evicted *)
  mutable slow_entries : slow_entry list;  (* most recent first, bounded *)
  (* Per-document Strong DataGuides, registered lazily at shred time (the
     load path never pays for a guide nobody consults) and invalidated by
     in-place updates. [query] consults them to short-circuit provably-empty
     paths; the linter uses them as its XPath-vs-schema oracle. *)
  guides : (doc_id, Xmlkit.Dataguide.t Lazy.t) Hashtbl.t;
  mutable empty_fastpath : bool;
}

let schemes () = Xmlshred.Registry.ids () @ [ "inline" ]

let resolve_mapping ~scheme ~dtd =
  if String.equal scheme "inline" then
    match dtd with
    | Some d -> Xmlshred.Inline.make d
    | None -> err "the inline scheme requires a DTD (pass ~dtd)"
  else
    match Xmlshred.Registry.find scheme with
    | Some m -> m
    | None ->
      err "unknown scheme %s (available: %s)" scheme (String.concat ", " (schemes ()))

(* Metrics-registry label distinguishing this instance's series from
   other live stores'. Auto-generated scheme#N unless overridden. *)
let instance_counter = Atomic.make 0

let fresh_label ?metrics_label scheme =
  match metrics_label with
  | Some l -> l
  | None -> Printf.sprintf "%s#%d" scheme (Atomic.fetch_and_add instance_counter 1 + 1)

(* Durable stores keep a one-line "scheme" file next to the page files,
   so [open_durable] needs no scheme argument from the caller. *)
let scheme_file dir = Filename.concat dir "scheme"

let write_scheme_file dir scheme =
  let oc = open_out_bin (scheme_file dir) in
  output_string oc (scheme ^ "\n");
  close_out oc

let read_scheme_file dir =
  match open_in_bin (scheme_file dir) with
  | exception Sys_error _ -> err "%s has no scheme file (not a durable store?)" dir
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    String.trim line

(* The one record constructor: a fresh, reopened, restored or replicated
   store differs only in these arguments. Document ids continue after the
   highest one the database already holds. *)
let make ?metrics_label ?(validate = false) ?(indexes = true) ~dtd ~scheme ~mapping db =
  let next_doc =
    match (Db.query db "SELECT max(doc) FROM documents").Relstore.Executor.rows with
    | [ [| Relstore.Value.Int m |] ] -> m + 1
    | _ -> 0
  in
  {
    db;
    mapping;
    scheme;
    dtd;
    validate;
    indexes;
    metrics_label = fresh_label ?metrics_label scheme;
    next_doc;
    slow_threshold_ns = None;
    slow_capacity = default_slow_log_capacity;
    slow_entries = [];
    guides = Hashtbl.create 8;
    empty_fastpath = true;
  }

(* [validate] (only meaningful with a DTD) checks documents against the DTD
   before storing them. [durable] roots the store in a directory (paged
   checkpoints + WAL; see Database.open_durable) instead of memory. *)
let create ?dtd ?(validate = false) ?(indexes = true) ?metrics_label ?durable scheme =
  let mapping = resolve_mapping ~scheme ~dtd in
  let db =
    match durable with
    | None -> Db.create ()
    | Some dir ->
      if
        Sys.file_exists (Filename.concat dir "CURRENT")
        || Sys.file_exists (Filename.concat dir "wal.log")
      then err "%s already holds a durable store (reopen it with open_durable)" dir;
      let db = Db.open_durable dir in
      write_scheme_file dir scheme;
      db
  in
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS documents (doc INTEGER NOT NULL, name TEXT, root_tag TEXT \
        NOT NULL, nodes INTEGER NOT NULL, depth INTEGER NOT NULL)");
  let module M = (val mapping : Xmlshred.Mapping.MAPPING) in
  M.create_schema db;
  if indexes then M.create_indexes db;
  make ?metrics_label ~validate ~indexes ~dtd ~scheme ~mapping db

let scheme t = t.scheme
let database t = t.db
let metrics_label t = t.metrics_label
let is_durable t = Db.is_durable t.db
let durable_dir t = Db.durable_dir t.db
let last_recovery t = Db.last_recovery t.db

(* Every public operation runs under the store's metrics label (so two
   live stores don't interleave series) and a root trace span naming the
   operation, with the scheme attached. *)
let with_op t ?(attrs = []) name f =
  Relstore.Metrics.with_label t.metrics_label @@ fun () ->
  Obskit.Trace.with_span ~attrs:(("scheme", t.scheme) :: attrs) name f

let registry_row ?name doc (dom : Dom.t) =
  [|
    Relstore.Value.Int doc;
    (match name with Some n -> Relstore.Value.Text n | None -> Relstore.Value.Null);
    Relstore.Value.Text dom.Dom.root.Dom.tag;
    Relstore.Value.Int (Dom.count_nodes dom);
    Relstore.Value.Int (Dom.depth dom);
  |]

let add_dom ?name t (dom : Dom.t) : doc_id =
  (match (t.validate, t.dtd) with
  | true, Some dtd ->
    let violations = Xmlkit.Dtd.validate dtd dom in
    if violations <> [] then
      err "document is not valid against the DTD: %s"
        (String.concat "; " (List.map Xmlkit.Dtd.violation_to_string violations))
  | _ -> ());
  let ix = Index.of_document dom in
  let doc = t.next_doc in
  let module M = (val t.mapping : Xmlshred.Mapping.MAPPING) in
  Relstore.Metrics.timed ("store.shred." ^ t.scheme) (fun () ->
      Obskit.Trace.with_span
        ~attrs:[ ("scheme", t.scheme); ("doc", string_of_int doc) ]
        "shred"
        (fun () ->
          (* emit through a load session: rows go straight into the table
             arenas, every touched index is built bottom-up at finish
             (index.build spans), and a failed shred drains cleanly *)
          let t0 = Obskit.Clock.now_ns () in
          let session = Db.load_session t.db in
          (try
             Obskit.Trace.with_span "shred.bulk" (fun () -> M.shred_bulk session ~doc ix);
             (* the registry row rides the same session, so on a durable
                store it commits atomically with the document's rows —
                recovery never sees a registered document without its
                data, or shredded rows without their registration *)
             Db.session_insert session "documents" (registry_row ?name doc dom)
           with e ->
             Db.abort_session session;
             raise e);
          let rows = Db.finish_session session in
          let dur_ns = Obskit.Clock.now_ns () - t0 in
          Relstore.Metrics.incr ~by:rows "store.load.rows";
          Obskit.Trace.add_attr "rows" (string_of_int rows);
          Obskit.Trace.add_attr "rows_per_sec"
            (Printf.sprintf "%.0f" (float_of_int rows *. 1e9 /. float_of_int (max 1 dur_ns)))));
  (* schemes with data-dependent tables (binary, universal) may have created
     new tables during the shred; index creation is idempotent *)
  if t.indexes then M.create_indexes t.db;
  Hashtbl.replace t.guides doc (lazy (Xmlkit.Dataguide.of_index ix));
  t.next_doc <- doc + 1;
  doc

(* The string/file entries parse inside the root span, so the xml.parse
   span nests under store.add_document in the trace. *)
let add_document ?name t dom =
  with_op t "store.add_document" @@ fun () -> add_dom ?name t dom

let add_string ?name t src =
  with_op t "store.add_document" @@ fun () -> add_dom ?name t (Xmlkit.Parser.parse src)

let add_file ?name t path =
  with_op t "store.add_document" @@ fun () -> add_dom ?name t (Xmlkit.Parser.parse_file path)

type doc_info = { doc : doc_id; doc_name : string option; root_tag : string; nodes : int; depth : int }

let documents t =
  let r = Db.query t.db "SELECT doc, name, root_tag, nodes, depth FROM documents ORDER BY doc" in
  List.map
    (fun row ->
      {
        doc = (match row.(0) with Relstore.Value.Int i -> i | _ -> err "bad doc id");
        doc_name =
          (match row.(1) with Relstore.Value.Null -> None | v -> Some (Relstore.Value.to_string v));
        root_tag = Relstore.Value.to_string row.(2);
        nodes = (match row.(3) with Relstore.Value.Int i -> i | _ -> 0);
        depth = (match row.(4) with Relstore.Value.Int i -> i | _ -> 0);
      })
    r.Relstore.Executor.rows

let check_doc t doc =
  if not (List.exists (fun d -> d.doc = doc) (documents t)) then
    err "no document with id %d" doc

let get_document t doc =
  with_op t ~attrs:[ ("doc", string_of_int doc) ] "store.get_document" @@ fun () ->
  check_doc t doc;
  let module M = (val t.mapping : Xmlshred.Mapping.MAPPING) in
  Relstore.Metrics.timed ("store.reconstruct." ^ t.scheme) (fun () ->
      Obskit.Trace.with_span
        ~attrs:[ ("scheme", t.scheme); ("doc", string_of_int doc) ]
        "reconstruct"
        (fun () -> M.reconstruct t.db ~doc))

(* ------------------------------------------------------------------ *)
(* Queries *)

type result = {
  values : string list;  (* XPath string-values in document order *)
  nodes : Dom.node list Lazy.t;  (* reconstructed result subtrees *)
  sql : string list;  (* SQL statements executed *)
  joins : int;
  fallback : bool;  (* answered by reconstruction + native evaluation *)
  analyzed : (string * Relstore.Plan.annotated) list;
      (* with ~analyze:true, one executed operator tree per statement *)
  gc_minor_bytes : int;  (* bytes allocated young while answering *)
  gc_major_bytes : int;  (* bytes promoted or allocated old *)
}

let take n l = List.filteri (fun i _ -> i < n) l

(* The statically-empty fast path: when the document's registered DataGuide
   proves the path can match nothing (the guide is exact for reachability),
   answer with an empty result without planning or executing any SQL. Only
   registered guides are consulted — the hot path never reconstructs; the
   first consultation forces the guide from the shred-time index and later
   ones reuse it. *)
let provably_empty_here t doc path =
  t.empty_fastpath
  &&
  match Hashtbl.find_opt t.guides doc with
  | None -> false
  | Some g ->
    Lintkit.Xpath_lint.provably_empty (Lintkit.Xpath_lint.of_dataguide (Lazy.force g)) path

let empty_result =
  {
    values = [];
    nodes = lazy [];
    sql = [];
    joins = 0;
    fallback = false;
    analyzed = [];
    gc_minor_bytes = 0;
    gc_major_bytes = 0;
  }

let query ?(analyze = false) t doc (xpath : string) : result =
  with_op t ~attrs:[ ("doc", string_of_int doc); ("xpath", xpath) ] "store.query"
  @@ fun () ->
  check_doc t doc;
  let path = Xpathkit.Parser.parse_path xpath in
  if provably_empty_here t doc path then begin
    Relstore.Metrics.incr "store.query.fastpath_empty";
    empty_result
  end
  else
  let module M = (val t.mapping : Xmlshred.Mapping.MAPPING) in
  let run () =
    Relstore.Metrics.timed ("store.query." ^ t.scheme) (fun () -> M.query t.db ~doc path)
  in
  (* The slow log needs per-statement captures even when the caller did not
     ask for ANALYZE, so an armed threshold also installs the sink. *)
  let capturing = analyze || t.slow_threshold_ns <> None in
  (* allocation attributed to this query: words deltas, in bytes (minor =
     everything allocated young; major = promoted + allocated old).
     [Gc.minor_words] reads the allocation pointer, so the minor delta is
     exact — [Gc.quick_stat]'s copy only refreshes at collection points
     and reads 0 across a small query. *)
  let minor0 = Gc.minor_words () in
  let _, _, major0 = Gc.counters () in
  let t0 = Obskit.Clock.now_ns () in
  let r, captures =
    if capturing then Xmlshred.Mapping.collect_captures run else (run (), [])
  in
  let total_ns = Obskit.Clock.now_ns () - t0 in
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  let word = Sys.word_size / 8 in
  let minor_bytes = int_of_float (minor1 -. minor0) * word in
  let major_bytes = int_of_float (major1 -. major0) * word in
  Relstore.Metrics.incr ~by:(max 0 minor_bytes) "store.query.minor_bytes";
  Relstore.Metrics.incr ~by:(max 0 major_bytes) "store.query.major_bytes";
  if Obskit.Trace.recording () then begin
    Obskit.Trace.add_attr "minor_bytes" (string_of_int minor_bytes);
    Obskit.Trace.add_attr "major_bytes" (string_of_int major_bytes)
  end;
  (match t.slow_threshold_ns with
  | Some thr when total_ns >= thr && t.slow_capacity > 0 ->
    let statements =
      List.map
        (fun (c : Xmlshred.Mapping.capture) ->
          {
            ss_sql = c.cap_sql;
            ss_params = c.cap_params;
            ss_plan = Relstore.Plan.to_string c.cap_plan;
            ss_annot = c.cap_annot;
          })
        captures
    in
    Relstore.Metrics.incr "store.slow_queries";
    t.slow_entries <-
      {
        se_xpath = xpath;
        se_doc = doc;
        se_scheme = t.scheme;
        se_total_ns = total_ns;
        se_fallback = r.Xmlshred.Mapping.fallback;
        se_minor_bytes = minor_bytes;
        se_major_bytes = major_bytes;
        se_statements = statements;
      }
      :: take (t.slow_capacity - 1) t.slow_entries
  | _ -> ());
  {
    values = r.Xmlshred.Mapping.values;
    nodes = r.Xmlshred.Mapping.nodes;
    sql = r.Xmlshred.Mapping.sql;
    joins = r.Xmlshred.Mapping.joins;
    fallback = r.Xmlshred.Mapping.fallback;
    analyzed =
      (if analyze then
         List.map (fun (c : Xmlshred.Mapping.capture) -> (c.cap_sql, c.cap_annot)) captures
       else []);
    gc_minor_bytes = minor_bytes;
    gc_major_bytes = major_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Slow-query log *)

let set_slow_threshold t ms =
  t.slow_threshold_ns <-
    Option.map (fun m -> int_of_float (m *. 1e6)) ms

let slow_threshold_ms t = Option.map (fun ns -> float_of_int ns /. 1e6) t.slow_threshold_ns
let slow_log t = t.slow_entries
let clear_slow_log t = t.slow_entries <- []

let set_slow_log_capacity t n =
  if n < 0 then err "slow-log capacity must be non-negative (got %d)" n;
  t.slow_capacity <- n;
  (* shrinking evicts the oldest retained entries immediately *)
  t.slow_entries <- take n t.slow_entries

let slow_log_capacity t = t.slow_capacity

(* ------------------------------------------------------------------ *)
(* Static analysis *)

let set_empty_fastpath t enabled = t.empty_fastpath <- enabled
let empty_fastpath t = t.empty_fastpath

let dataguide t doc =
  check_doc t doc;
  match Hashtbl.find_opt t.guides doc with
  | Some g -> Lazy.force g
  | None ->
    (* loaded stores and updated documents rebuild from the relations *)
    let module M = (val t.mapping : Xmlshred.Mapping.MAPPING) in
    let g = Xmlkit.Dataguide.of_document (M.reconstruct t.db ~doc) in
    Hashtbl.replace t.guides doc (Lazy.from_val g);
    g

let lint_query ?(schema_check = true) t doc xpath =
  with_op t ~attrs:[ ("doc", string_of_int doc); ("xpath", xpath) ] "store.lint"
  @@ fun () ->
  check_doc t doc;
  let oracle =
    if schema_check then Some (Lintkit.Xpath_lint.of_dataguide (dataguide t doc)) else None
  in
  Lintkit.Lint.lint_mapping_query ?oracle ~db:t.db ~doc ~mapping:t.mapping ~xpath ()

let lint_workload ?schema_check t doc xpaths =
  List.map (fun xpath -> lint_query ?schema_check t doc xpath) xpaths

let query_values t doc xpath = (query t doc xpath).values
let query_nodes t doc xpath = Lazy.force (query t doc xpath).nodes
let query_count t doc xpath = List.length (query t doc xpath).values

(* Evaluate one path against every stored document. *)
let query_all t xpath =
  List.map (fun info -> (info.doc, query t info.doc xpath)) (documents t)

let translate_sql t doc xpath =
  (* the SQL a query would run, without materializing values *)
  (query t doc xpath).sql

(* ------------------------------------------------------------------ *)
(* Updates (supported by the edge, dewey, and interval schemes) *)

type update_cost = { rows_inserted : int; rows_updated : int; rows_deleted : int }

let updater t =
  match Xmlshred.Updates.find t.scheme with
  | Some u -> u
  | None -> err "scheme %s does not support in-place updates" t.scheme

let cost_of (c : Xmlshred.Updates.cost) =
  {
    rows_inserted = c.Xmlshred.Updates.inserted;
    rows_updated = c.Xmlshred.Updates.updated;
    rows_deleted = c.Xmlshred.Updates.deleted;
  }

let append_child t doc ~parent node =
  with_op t ~attrs:[ ("doc", string_of_int doc) ] "store.append_child" @@ fun () ->
  check_doc t doc;
  let module U = (val updater t : Xmlshred.Updates.UPDATER) in
  let cost =
    cost_of (U.append_child t.db ~doc ~parent:(Xpathkit.Parser.parse_path parent) node)
  in
  (* the stored structure changed; a stale guide could wrongly prove paths
     into the new subtree empty *)
  Hashtbl.remove t.guides doc;
  cost

let delete_matching t doc xpath =
  with_op t ~attrs:[ ("doc", string_of_int doc) ] "store.delete_matching" @@ fun () ->
  check_doc t doc;
  let module U = (val updater t : Xmlshred.Updates.UPDATER) in
  let cost = cost_of (U.delete_matching t.db ~doc (Xpathkit.Parser.parse_path xpath)) in
  Hashtbl.remove t.guides doc;
  cost

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stats = {
  scheme_id : string;
  document_count : int;
  tables : Relstore.Database.table_stats list;
  total_rows : int;
  total_bytes : int;
  total_index_entries : int;
}

let stats t =
  let tables =
    List.filter
      (fun s -> not (String.equal s.Relstore.Database.st_table "documents"))
      (Db.stats t.db)
  in
  {
    scheme_id = t.scheme;
    document_count = List.length (documents t);
    tables;
    total_rows = List.fold_left (fun a s -> a + s.Relstore.Database.st_rows) 0 tables;
    total_bytes = List.fold_left (fun a s -> a + s.Relstore.Database.st_bytes) 0 tables;
    total_index_entries =
      List.fold_left (fun a s -> a + s.Relstore.Database.st_index_entries) 0 tables;
  }

(* Raw SQL access for power users and the CLI. *)
let sql t statement = Db.exec t.db statement
let explain t select = Db.explain t.db select

(* Plan-cache visibility. Translated queries bind their variable parts
   (doc ids, tag names, literals) as parameters, so repeated queries — and
   [query_all] across documents — reuse one cached plan per statement
   shape. *)
let cache_stats t = Db.cache_stats t.db
let reset_cache_stats t = Db.reset_cache_stats t.db
let set_plan_cache t enabled = Db.set_plan_cache t.db enabled

(* ------------------------------------------------------------------ *)
(* Durability: checkpoint / reopen a directory-rooted store. *)

let checkpoint t =
  with_op t "store.checkpoint" @@ fun () -> Db.checkpoint t.db

let close t = with_op t "store.close" @@ fun () -> Db.close t.db

let open_durable ?dtd ?(validate = false) ?metrics_label dir =
  let scheme = read_scheme_file dir in
  let mapping = resolve_mapping ~scheme ~dtd in
  let db = Db.open_durable dir in
  if Option.is_none (Db.find_table db "documents") then begin
    Db.close db;
    err "%s does not contain a document registry (not a store directory?)" dir
  end;
  (* heal anything a crash before the first flush lost: schema and index
     creation are both IF NOT EXISTS across the schemes *)
  let module M = (val mapping : Xmlshred.Mapping.MAPPING) in
  M.create_schema db;
  M.create_indexes db;
  make ?metrics_label ~validate ~dtd ~scheme ~mapping db

(* ------------------------------------------------------------------ *)
(* Persistence: the store round-trips through the relational dump. *)

let save t path = Db.dump_to_file t.db path

(* In-memory snapshot of the whole store (the relational dump prefixed by
   a scheme header line), and its inverse. The pool uses these to hand
   each reader domain a private replica of the writer's state: dump →
   restore round-trips every scheme byte-exactly (PR 7), so a replica
   answers Q1–Q12 identically to the store it was taken from. *)
let snapshot t = t.scheme ^ "\n" ^ Db.dump t.db

let of_snapshot ?dtd ?metrics_label snap =
  let nl = try String.index snap '\n' with Not_found -> err "snapshot has no scheme header" in
  let scheme = String.sub snap 0 nl in
  let body = String.sub snap (nl + 1) (String.length snap - nl - 1) in
  let mapping = resolve_mapping ~scheme ~dtd in
  let db = Db.restore body in
  if Option.is_none (Db.find_table db "documents") then
    err "snapshot does not contain a document registry";
  make ?metrics_label ~dtd ~scheme ~mapping db

(* ------------------------------------------------------------------ *)
(* Embedded observability server: GET /metrics /healthz /slowlog
   /traces /stats over servekit's blocking listener. The handlers only
   render in-memory state, so they are safe to run between any two
   store operations (the server is single-threaded like the store). *)

module Json = Obskit.Json

(* The storage-telemetry series the endpoint advertises even before the
   first load or crash touches them: create each counter at zero (an
   existing value is preserved — incr by 0) under the process-wide
   label, so a scrape of a freshly opened store already shows the full
   catalog. *)
let declare_storage_series () =
  Relstore.Metrics.with_label "" (fun () ->
      List.iter
        (fun name -> Relstore.Metrics.incr ~by:0 name)
        [
          "db.wal.append"; "db.wal.fsync"; "db.wal.bytes"; "db.wal.commit";
          "db.wal.truncate"; "db.wal.torn_tail"; "db.wal.torn_bytes";
          "db.checkpoint"; "db.recovery.redo_records"; "db.recovery.undone_rows";
          "db.recovery.losers"; "db.recovery.torn_bytes"; "buffer_pool.read";
          "buffer_pool.write"; "buffer_pool.hit"; "buffer_pool.miss";
          "buffer_pool.evict"; "buffer_pool.crc_fail"; "db.btree.leaf_split";
          "db.btree.internal_split"; "db.btree.bulk_build"; "db.btree.bulk_merge";
          "db.page.read"; "db.page.write"; "db.page.fsync"; "db.page.hit";
          "db.page.miss"; "db.page.evict"; "db.page.checkpoint_pages";
          "db.bulk.rows"; "db.bulk.aborted_rows"; "db.bulk.group_int";
          "db.bulk.group_text"; "db.bulk.group_hash"; "db.cache.hit"; "db.cache.miss";
        ];
      List.iter
        (fun name -> Relstore.Metrics.set_gauge name (Relstore.Metrics.gauge name))
        [ "buffer_pool.resident_pages"; "buffer_pool.resident_bytes" ])

let json_response status json =
  { Servekit.Http.status; content_type = "application/json"; body = Json.to_string json ^ "\n" }

let text_response status body = { Servekit.Http.status; content_type = "text/plain"; body }

let metrics_response () =
  let body = Relstore.Metrics.prometheus () in
  match Obskit.Prom.lint body with
  | Ok () ->
    { Servekit.Http.status = 200; content_type = "text/plain; version=0.0.4"; body }
  | Error problems ->
    text_response 500 ("exposition failed lint:\n" ^ String.concat "\n" problems ^ "\n")

let healthz t =
  let wal_writable =
    match durable_dir t with
    | None -> true
    | Some dir -> (
      match Unix.access (Filename.concat dir "wal.log") [ Unix.W_OK ] with
      | () -> true
      | exception Unix.Unix_error _ -> false)
  in
  let checkpoint_age =
    match durable_dir t with
    | None -> None
    | Some dir -> (
      match Unix.stat (Filename.concat dir "CURRENT") with
      | st -> Some (Unix.gettimeofday () -. st.Unix.st_mtime)
      | exception Unix.Unix_error _ -> None)
  in
  let docs =
    try Some (List.length (documents t))
    with Store_error _ | Db.Db_error _ | Relstore.Sql_parser.Parse_error _ | Not_found -> None
  in
  let ok = wal_writable && docs <> None in
  let fields =
    [
      ("ok", Json.Bool ok);
      ("scheme", Json.Str t.scheme);
      ("durable", Json.Bool (is_durable t));
      ("wal_writable", Json.Bool wal_writable);
      ("documents", match docs with Some n -> Json.Num (float_of_int n) | None -> Json.Null);
    ]
    @ (match durable_dir t with Some dir -> [ ("dir", Json.Str dir) ] | None -> [])
    @
    match checkpoint_age with
    | Some age -> [ ("last_checkpoint_age_seconds", Json.Num age) ]
    | None -> []
  in
  json_response (if ok then 200 else 503) (Json.Obj fields)

let slowlog_json t limit =
  let entries = match limit with Some n -> take n t.slow_entries | None -> t.slow_entries in
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("xpath", Json.Str e.se_xpath);
             ("doc", Json.Num (float_of_int e.se_doc));
             ("scheme", Json.Str e.se_scheme);
             ("total_ms", Json.Num (float_of_int e.se_total_ns /. 1e6));
             ("fallback", Json.Bool e.se_fallback);
             ("minor_bytes", Json.Num (float_of_int e.se_minor_bytes));
             ("major_bytes", Json.Num (float_of_int e.se_major_bytes));
             ( "statements",
               Json.List
                 (List.map
                    (fun s ->
                      Json.Obj
                        [
                          ("sql", Json.Str s.ss_sql);
                          ( "params",
                            Json.List
                              (List.map
                                 (fun v -> Json.Str (Relstore.Value.to_string v))
                                 (Array.to_list s.ss_params)) );
                          ("plan", Json.Str s.ss_plan);
                        ])
                    e.se_statements) );
           ])
       entries)

let stats_json t =
  let s = stats t in
  let hits, misses, invalidations, evictions = cache_stats t in
  Json.Obj
    [
      ("scheme", Json.Str s.scheme_id);
      ("documents", Json.Num (float_of_int s.document_count));
      ("total_rows", Json.Num (float_of_int s.total_rows));
      ("total_bytes", Json.Num (float_of_int s.total_bytes));
      ("total_index_entries", Json.Num (float_of_int s.total_index_entries));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int hits));
            ("misses", Json.Num (float_of_int misses));
            ("invalidations", Json.Num (float_of_int invalidations));
            ("evictions", Json.Num (float_of_int evictions));
          ] );
      ( "tables",
        Json.List
          (List.map
             (fun ts ->
               Json.Obj
                 [
                   ("table", Json.Str ts.Relstore.Database.st_table);
                   ("rows", Json.Num (float_of_int ts.Relstore.Database.st_rows));
                   ("bytes", Json.Num (float_of_int ts.Relstore.Database.st_bytes));
                   ( "index_entries",
                     Json.Num (float_of_int ts.Relstore.Database.st_index_entries) );
                 ])
             s.tables) );
    ]

let handle t (req : Servekit.Http.request) =
  Relstore.Metrics.with_label t.metrics_label (fun () ->
      Relstore.Metrics.incr "store.serve.requests");
  if not (String.equal req.Servekit.Http.meth "GET") then
    text_response 405 "only GET is supported\n"
  else
    match req.Servekit.Http.path with
    | "/metrics" -> metrics_response ()
    | "/healthz" -> healthz t
    | "/slowlog" ->
      let limit =
        Option.bind (Servekit.Http.query_param req "limit") int_of_string_opt
      in
      json_response 200 (slowlog_json t limit)
    | "/traces" ->
      {
        Servekit.Http.status = 200;
        content_type = "application/json";
        body = Obskit.Export.to_chrome_json (Obskit.Trace.spans ());
      }
    | "/stats" -> json_response 200 (stats_json t)
    | "/" ->
      text_response 200
        "xmlstore observability endpoints: /metrics /healthz /slowlog /traces /stats\n"
    | p -> text_response 404 (Printf.sprintf "no such endpoint %s\n" p)

let serve ?host ?port t =
  declare_storage_series ();
  Servekit.Server.create ?host ?port (handle t)

let load ?dtd ?(validate = false) ?metrics_label ~scheme path =
  let mapping = resolve_mapping ~scheme ~dtd in
  let db = Db.restore_from_file path in
  if Option.is_none (Db.find_table db "documents") then
    err "%s does not contain a document registry (not a store dump?)" path;
  make ?metrics_label ~validate ~dtd ~scheme ~mapping db
