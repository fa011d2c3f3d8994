(* The traced replay: the same seeded documents, queries and load order
   as the end-to-end pass, replayed in-process against a store and pool
   built the way `xmlstore serve` builds them (every trace sampled, slow
   log armed on the primary). Each request goes through the real HTTP
   parser, data-plane handler and renderer; then the layers below are
   called one at a time through their public functions, each call in a
   benchmark span. Nothing inside the libraries is changed or hooked. *)

module Store = Xmlstore.Store
module Db = Relstore.Database
module Http = Servekit.Http
module Queries = Xmlwork.Queries
module Pool = Storepool.Pool

(* A prefix of the workload's request stream: enough to cover every
   (document, query) pair and several loads, small enough that two
   passes (spans on, spans off) fit a run. *)
let max_queries = 36
let max_loads = 6

type request = Q of { doc : int; qid : string; xpath : string } | L of string

let plan ~workload ~seed =
  let preload = Inputs.preload seed in
  let stream n =
    let next = Inputs.query_stream seed ~docs:Inputs.preload_docs in
    List.init n (fun _ ->
        let d, (q : Queries.query) = next () in
        Q { doc = d; qid = q.Queries.qid; xpath = q.Queries.xpath })
  in
  let sweep ndocs =
    List.concat_map
      (fun d ->
        List.map
          (fun (q : Queries.query) -> Q { doc = d; qid = q.Queries.qid; xpath = q.Queries.xpath })
          Queries.auction_queries)
      (List.init ndocs Fun.id)
  in
  let setup_loads = List.map (fun (d : Inputs.doc) -> L d.Inputs.xml) (List.tl preload) in
  match workload with
  | "query_steady" -> ((List.hd preload).Inputs.xml, false, setup_loads @ stream max_queries)
  | "mixed_rw" ->
    (* the open loop's arrival order: one load per mixed_load_every_s
       seconds of queries at mixed_qps, the first half an interval in *)
    let per = int_of_float (E2e.mixed_qps *. E2e.mixed_load_every_s) in
    let qs = stream max_queries in
    let rec interleave i qs k =
      match qs with
      | [] -> []
      | q :: rest ->
        if i = (per / 2) + (k * per) && k < max_loads then
          L (Inputs.small seed k).Inputs.xml :: interleave i qs (k + 1)
        else q :: interleave (i + 1) rest k
    in
    ((List.hd preload).Inputs.xml, false, setup_loads @ interleave 0 qs 0)
  | "load_grow" ->
    let loads = List.filteri (fun i _ -> i < max_loads) (Inputs.grow seed) in
    ( (Inputs.grow_base seed).Inputs.xml,
      true,
      List.map (fun (d : Inputs.doc) -> L d.Inputs.xml) loads @ sweep (max_queries / 12) )
  | w -> invalid_arg ("unknown workload " ^ w)

let mapping =
  match Xmlshred.Registry.find "edge" with Some m -> m | None -> failwith "no edge mapping"

(* Layer calls below Store run inside a sampled trace of their own, as
   they do under Store.query in the server: a recording trace selects
   the instrumented executor, and the replay must time that one. *)
let traced f = Obskit.Trace.with_span "perfbench.layer" f

type counts = {
  mutable queries : int;
  mutable loads : int;
  mutable statements : int;
  mutable rows_examined : int;
  mutable result_values : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable minor_bytes_query : float;
  mutable minor_bytes_load : float;
  mutable shred_rows : int;
  mutable shred_nodes : int;
  mutable snapshot_bytes : float;
  mutable wal_fsyncs : int;
  mutable wal_bytes : int;
  mutable xml_bytes : int;
}

let fresh_counts () =
  {
    queries = 0; loads = 0; statements = 0; rows_examined = 0; result_values = 0; cache_hits = 0;
    cache_lookups = 0; minor_bytes_query = 0.; minor_bytes_load = 0.; shred_rows = 0;
    shred_nodes = 0; snapshot_bytes = 0.; wal_fsyncs = 0; wal_bytes = 0; xml_bytes = 0;
  }

let span = Spans.with_span

let query_layers pool c ~doc ~qid ~xpath =
  let module M = (val mapping : Xmlshred.Mapping.MAPPING) in
  (* a fresh replica is cached now: the handler just released it *)
  let r = span "pool.acquire" (fun () -> Pool.acquire pool) in
  Pool.release pool r;
  Pool.with_reader pool (fun store ->
      let db = Store.database store in
      let path = span "xpath.parse" (fun () -> Xpathkit.Parser.parse_path xpath) in
      (* Store.query and the mapping's query alternate twice and the
         report keeps each one's faster call, so drift between the two
         does not leak into store.query_other_us *)
      let last = ref None in
      for _ = 1 to 2 do
        ignore (span "shred.translated_query" (fun () -> traced (fun () -> M.query db ~doc path)));
        let h0, m0, _, _ = Store.cache_stats store in
        last := Some (span ~tag:qid "store.query" (fun () -> Store.query store doc xpath));
        let h1, m1, _, _ = Store.cache_stats store in
        c.cache_hits <- c.cache_hits + (h1 - h0);
        c.cache_lookups <- c.cache_lookups + (h1 - h0) + (m1 - m0)
      done;
      Option.iter
        (fun (res : Store.result) ->
          c.minor_bytes_query <- c.minor_bytes_query +. float_of_int res.Store.gc_minor_bytes;
          c.result_values <- c.result_values + List.length res.Store.values)
        !last;
      let translated, caps = Xmlshred.Mapping.collect_captures (fun () -> M.query db ~doc path) in
      c.statements <- c.statements + List.length translated.Xmlshred.Mapping.sql;
      List.iter
        (fun (cap : Xmlshred.Mapping.capture) ->
          c.rows_examined <-
            c.rows_examined
            + Relstore.Plan.fold_annotated (fun a n -> a + n.Relstore.Plan.an_rows) 0 cap.cap_annot;
          ignore (span "sql.parse" (fun () -> Relstore.Sql_parser.parse_statement cap.cap_sql));
          ignore (span "sql.plan" (fun () -> Db.plan_of db cap.cap_sql));
          ignore
            (span "sql.exec" (fun () ->
                 traced (fun () -> Db.query ~params:cap.cap_params db cap.cap_sql))))
        caps;
      if translated.Xmlshred.Mapping.fallback then
        ignore (span "shred.reconstruct" (fun () -> traced (fun () -> M.reconstruct db ~doc))));
  c.queries <- c.queries + 1

let counter store name = Relstore.Metrics.counter ~label:(Store.metrics_label store) name

let load_layers pool c ~mirror ~durable_mirror xml =
  let module M = (val mapping : Xmlshred.Mapping.MAPPING) in
  let w0 = Gc.minor_words () in
  let dom = span "xml.parse" (fun () -> Xmlkit.Parser.parse xml) in
  ignore (span "store.add_document" (fun () -> Store.add_document mirror dom));
  c.minor_bytes_load <- c.minor_bytes_load +. ((Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8));
  let f0 = counter durable_mirror "db.wal.fsync" and b0 = counter durable_mirror "db.wal.bytes" in
  ignore (span "store.add_document.durable" (fun () -> Store.add_document durable_mirror dom));
  c.wal_fsyncs <- c.wal_fsyncs + (counter durable_mirror "db.wal.fsync" - f0);
  c.wal_bytes <- c.wal_bytes + (counter durable_mirror "db.wal.bytes" - b0);
  let ix = span "xml.index" (fun () -> Xmlkit.Index.of_document dom) in
  let scratch = Db.create () in
  M.create_schema scratch;
  M.create_indexes scratch;
  let rows =
    span "shred.bulk" (fun () ->
        traced (fun () ->
            let session = Db.load_session scratch in
            M.shred_bulk session ~doc:0 ix;
            Db.finish_session session))
  in
  c.shred_rows <- c.shred_rows + rows;
  c.shred_nodes <- c.shred_nodes + Xmlkit.Index.count ix;
  let snap = span "pool.snapshot" (fun () -> Pool.with_primary pool Store.snapshot) in
  c.snapshot_bytes <- c.snapshot_bytes +. float_of_int (String.length snap);
  ignore (span "pool.replica_build" (fun () -> Store.of_snapshot snap));
  let nl = String.index snap '\n' in
  let body = String.sub snap (nl + 1) (String.length snap - nl - 1) in
  ignore (span "restore.script_parse" (fun () -> Relstore.Sql_parser.parse_script body));
  ignore (span "restore.total" (fun () -> Db.restore body));
  c.loads <- c.loads + 1;
  c.xml_bytes <- c.xml_bytes + String.length xml

(* Build the primary the way serve does, plus two mirrors that take the
   same loads (in memory and durable) for the add_document timings. *)
let build ~work ~durable initial =
  let dir name =
    let d = Filename.concat work name in
    E2e.remove_tree d;
    d
  in
  let primary =
    if durable then begin
      let d = dir "replay-primary" in
      let s = Store.create ~durable:d "edge" in
      ignore (Store.add_string s initial);
      Store.close s;
      Store.open_durable d
    end
    else
      let s = Store.create "edge" in
      ignore (Store.add_string s initial);
      s
  in
  Store.set_slow_threshold primary (Some 0.0);
  let mirror = Store.create "edge" in
  ignore (Store.add_string mirror initial);
  let durable_mirror = Store.create ~durable:(dir "replay-mirror") "edge" in
  ignore (Store.add_string durable_mirror initial);
  Store.declare_storage_series ();
  Pool.declare_series ();
  (Pool.create ~readers:E2e.readers primary, mirror, durable_mirror)

(* One pass over the plan; returns its wall time (ns) and the counts. *)
let pass ~work ~recording (initial, durable, requests) =
  Spans.reset ~recording;
  let pool, mirror, durable_mirror = build ~work ~durable initial in
  let c = fresh_counts () in
  let t0 = Obskit.Clock.now_ns () in
  List.iter
    (fun r ->
      let tag, bytes =
        match r with
        | Q { doc; xpath; _ } -> ("query", Inputs.query_request doc xpath)
        | L xml -> ("load", Inputs.load_request xml)
      in
      Spans.with_request ~tag (fun () ->
          let req =
            match span "http.parse" (fun () -> Http.parse_string bytes) with
            | Ok req -> req
            | Error _ -> failwith "replayed request does not parse"
          in
          let resp = span ~tag "pool.handler" (fun () -> Storepool.Service.handler pool req) in
          if resp.Http.status <> 200 then failwith ("replayed request failed: " ^ resp.Http.body);
          ignore (span "http.render" (fun () -> Http.render ~keep_alive:true resp));
          match r with
          | Q { doc; qid; xpath } -> query_layers pool c ~doc ~qid ~xpath
          | L xml -> load_layers pool c ~mirror ~durable_mirror xml))
    requests;
  let wall = Obskit.Clock.now_ns () - t0 in
  Store.close durable_mirror;
  (wall, c)

let run ~workload ~seed ~work =
  Obskit.Trace.set_sampling Obskit.Trace.Always;
  let p = plan ~workload ~seed in
  let off_ns, _ = pass ~work ~recording:false p in
  let on_ns, c = pass ~work ~recording:true p in
  let spans = Spans.all () in
  let us name = Spans.mean_ns name /. 1e3 and ms name = Spans.mean_ns name /. 1e6 in
  let per_query name = fst (Spans.total name) /. 1e3 /. float_of_int c.queries in
  let nq = float_of_int c.queries and nl = float_of_int c.loads in
  let store_query = Spans.mean_min_ns "store.query" /. 1e3 in
  let translated = Spans.mean_min_ns "shred.translated_query" /. 1e3 in
  let classes =
    List.map
      (fun (q : Queries.query) ->
        ("store.query_us." ^ q.Queries.qid, Spans.mean_min_ns ~tag:q.Queries.qid "store.query" /. 1e3, "us"))
      Queries.auction_queries
  in
  let metrics =
    [
      ("http.parse_us", us "http.parse", "us");
      ("http.render_us", us "http.render", "us");
      ("pool.handler_us", Spans.mean_ns ~tag:"query" "pool.handler" /. 1e3, "us");
      ("pool.acquire_us", us "pool.acquire", "us");
      ("pool.replica_build_ms", ms "pool.replica_build", "ms");
      ("pool.snapshot_ms", ms "pool.snapshot", "ms");
      ("pool.snapshot_mb", c.snapshot_bytes /. 1e6 /. nl, "MB");
    ]
    @ classes
    @ [
        ( "store.query_other_us",
          store_query -. us "xpath.parse" -. translated,
          "us" );
        ("store.add_document_ms", ms "store.add_document", "ms");
        ( "store.commit_overhead_ms",
          ms "store.add_document.durable" -. ms "store.add_document",
          "ms" );
        ("xml.parse_ms", ms "xml.parse", "ms");
        ("xml.index_ms", ms "xml.index", "ms");
        ("xpath.parse_us", us "xpath.parse", "us");
        ("shred.translated_query_us", translated, "us");
        ("shred.statements_per_query", float_of_int c.statements /. nq, "count");
        ("shred.reconstruct_ms", ms "shred.reconstruct", "ms");
        ("shred.bulk_ms", ms "shred.bulk", "ms");
        ("shred.rows_per_node", float_of_int c.shred_rows /. float_of_int c.shred_nodes, "count");
        ("sql.parse_us", per_query "sql.parse", "us");
        ("sql.plan_us", per_query "sql.plan", "us");
        ("sql.exec_us", per_query "sql.exec", "us");
        ( "sql.plan_cache_hit_share",
          float_of_int c.cache_hits /. float_of_int (max 1 c.cache_lookups),
          "ratio" );
        ( "sql.rows_examined_per_result",
          float_of_int c.rows_examined /. float_of_int (max 1 c.result_values),
          "count" );
        ("restore.script_parse_ms", ms "restore.script_parse", "ms");
        ("restore.total_ms", ms "restore.total", "ms");
        ("wal.fsyncs_per_load", float_of_int c.wal_fsyncs /. nl, "count");
        ("wal.bytes_per_xml_byte", float_of_int c.wal_bytes /. float_of_int c.xml_bytes, "ratio");
        ("gc.minor_kb_per_query", c.minor_bytes_query /. 1024. /. nq, "KB");
        ("gc.minor_kb_per_load", c.minor_bytes_load /. 1024. /. nl, "KB");
        ( "trace.overhead_pct",
          100. *. float_of_int (on_ns - off_ns) /. float_of_int off_ns,
          "%" );
      ]
  in
  (metrics, spans, int_of_float nq, int_of_float nl)
