(* Benchmark harness: regenerates every table and figure of the evaluation
   (see DESIGN.md experiment index and EXPERIMENTS.md for paper-expected vs
   measured). Every experiment runs on Benchkit:

     dune exec bench/main.exe -- --smoke [EXPERIMENT...]      (the default)
     dune exec bench/main.exe -- --reference [EXPERIMENT...]

   A smoke run writes _build/bench/BENCH_<id>.json; only a reference run
   writes the committed BENCH_<id>.json. The process exits non-zero when
   any answer check fails. *)

module Store = Xmlstore.Store
module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module K = Benchkit

let schemes = [ "textblob"; "tokens"; "edge"; "binary"; "interval"; "dewey"; "universal"; "inline" ]
let indexed_schemes = [ "edge"; "binary"; "interval"; "dewey"; "universal"; "inline" ]
let workload = Xmlwork.Queries.auction_queries
let xpath_of qid = (Option.get (Xmlwork.Queries.find qid)).Xmlwork.Queries.xpath

let auction ~scale =
  Xmlwork.Auction.generate ~params:{ Xmlwork.Auction.default with scale; seed = 42 } ()

let make_store ?indexes ?durable scheme =
  if String.equal scheme "inline" then
    Store.create ?indexes ?durable ~dtd:(Lazy.force Xmlwork.Auction.dtd) scheme
  else Store.create ?indexes ?durable scheme

let loaded_store ?indexes scheme dom =
  let store = make_store ?indexes scheme in
  ignore (Store.add_document store dom);
  store

let query store xpath () = ignore (Store.query store 0 xpath)

(* Q1-Q12 of document 0 against the native evaluator's answers. *)
let native_answers dom =
  let ix = Index.of_document dom in
  List.map (fun q -> Xpathkit.Eval.select_strings ix q.Xmlwork.Queries.xpath) workload

let answers store = List.map (fun q -> Store.query_values store 0 q.Xmlwork.Queries.xpath) workload

let time_cell (name, t) = (name, K.Time t)

(* ------------------------------------------------------------------ *)
(* T1: storage cost per scheme *)

let t1 cfg =
  let scale = K.scales cfg [ 0.25; 0.5; 1.0 ] in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      List.map
        (fun scheme ->
          let s = Store.stats (loaded_store scheme dom) in
          [
            ("scale", K.Num sc); ("nodes", K.Int (Dom.count_nodes dom)); ("scheme", K.Text scheme);
            ("tables", K.Int (List.length s.Store.tables)); ("tuples", K.Int s.Store.total_rows);
            ("kib", K.Num (float_of_int s.Store.total_bytes /. 1024.));
            ("index_entries", K.Int s.Store.total_index_entries);
          ])
        schemes)
    scale
  |> K.report cfg ~id:"T1" ~title:"T1: storage cost (tuples and bytes per scheme)" ~scale

(* ------------------------------------------------------------------ *)
(* T2: load (shred) time per scheme; the first step is building the XML
   index every load starts from *)

let t2 cfg =
  let scale = K.scales cfg [ 0.25; 0.5; 1.0 ] in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      let nodes = Dom.count_nodes dom in
      K.compare cfg
        (("index", K.timed (fun () -> Index.of_document dom))
        :: List.map (fun s -> (s, K.timed (fun () -> loaded_store s dom))) schemes)
      |> List.map (fun (step, t) ->
             [
               ("scale", K.Num sc); ("nodes", K.Int nodes); ("step", K.Text step);
               ("load", K.Time t);
               ("knodes_per_s", K.Num (float_of_int nodes /. t.K.median /. 1000.));
             ]))
    scale
  |> K.report cfg ~id:"T2" ~title:"T2: document load (shred) time, ratio vs XML indexing" ~scale

(* ------------------------------------------------------------------ *)
(* F1: query response time across the workload, ratio vs the native
   evaluator; every scheme must answer like it *)

let f1 cfg =
  let sc = K.scale cfg 0.5 in
  let dom = auction ~scale:sc in
  let ix = Index.of_document dom in
  let stores = List.map (fun s -> (s, loaded_store s dom)) schemes in
  List.concat_map
    (fun (q : Xmlwork.Queries.query) ->
      let xpath = q.Xmlwork.Queries.xpath in
      let native = Xpathkit.Eval.select_strings ix xpath in
      let shape =
        ("native", (List.length native, 0, 0, true))
        :: List.map
             (fun (s, store) ->
               let r = Store.query store 0 xpath in
               let ok = K.check (r.Store.values = native) (q.Xmlwork.Queries.qid ^ " on " ^ s) in
               (s, (List.length r.Store.values, List.length r.Store.sql, r.Store.joins, ok)))
             stores
      in
      K.compare cfg
        (("native", K.timed (fun () -> Xpathkit.Eval.select_strings ix xpath))
        :: List.map (fun (s, store) -> (s, K.timed (query store xpath))) stores)
      |> List.map (fun (s, t) ->
             let results, stmts, joins, ok = List.assoc s shape in
             [
               ("query", K.Text q.Xmlwork.Queries.qid); ("scheme", K.Text s); ("time", K.Time t);
               ("results", K.Int results); ("stmts", K.Int stmts); ("joins", K.Int joins);
               ("answers", K.Bool ok);
             ]))
    workload
  |> K.report cfg ~id:"F1" ~title:"F1: query response time, auction workload, ratio vs native"
       ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F2: scalability of Q1 (child chain) and Q5 (descendant) *)

let f2 cfg =
  let scale = K.scales cfg [ 0.25; 0.5; 1.0; 2.0 ] in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      let ix = Index.of_document dom in
      let stores = List.map (fun s -> (s, loaded_store s dom)) schemes in
      List.concat_map
        (fun qid ->
          let xpath = xpath_of qid in
          let native = Xpathkit.Eval.select_strings ix xpath in
          List.iter
            (fun (s, store) ->
              ignore (K.check (Store.query_values store 0 xpath = native) (qid ^ " on " ^ s)))
            stores;
          K.compare cfg (List.map (fun (s, store) -> (s, K.timed (query store xpath))) stores)
          |> List.map (fun (s, t) ->
                 [
                   ("query", K.Text qid); ("scale", K.Num sc);
                   ("nodes", K.Int (Dom.count_nodes dom)); ("scheme", K.Text s); ("time", K.Time t);
                   ("results", K.Int (List.length native));
                 ]))
        [ "Q1"; "Q5" ])
    scale
  |> K.report cfg ~id:"F2" ~title:"F2: query time vs document size (Q1 child chain, Q5 descendant)"
       ~scale

(* ------------------------------------------------------------------ *)
(* T3: full-document reconstruction, round trip checked *)

let t3 cfg =
  let sc = K.scale cfg 0.5 in
  let bib_dtd = Lazy.force Xmlwork.Bibliography.dtd in
  let docs =
    [
      ("auction", auction ~scale:sc, None);
      ( "bibliography",
        Xmlwork.Bibliography.generate
          ~params:{ Xmlwork.Bibliography.default with entries = 300 }
          (),
        Some bib_dtd );
    ]
  in
  List.concat_map
    (fun (name, dom, dtd) ->
      let stores =
        List.map
          (fun s ->
            let store =
              match dtd with
              | Some d when String.equal s "inline" -> Store.create ~dtd:d s
              | _ -> make_store s
            in
            ignore (Store.add_document store dom);
            (s, store))
          schemes
      in
      K.compare cfg
        (List.map (fun (s, st) -> (s, K.timed (fun () -> Store.get_document st 0))) stores)
      |> List.map (fun (s, t) ->
             let same = Dom.equal dom (Store.get_document (List.assoc s stores) 0) in
             [
               ("document", K.Text name); ("nodes", K.Int (Dom.count_nodes dom));
               ("scheme", K.Text s); ("time", K.Time t);
               ("identical", K.Bool (K.check same (name ^ " round trip on " ^ s)));
             ]))
    docs
  |> K.report cfg ~id:"T3" ~title:"T3: full-document reconstruction time (round trip checked)"
       ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F3: effect of secondary indexes *)

let f3 cfg =
  let sc = K.scale cfg 1.0 in
  let dom = auction ~scale:sc in
  List.concat_map
    (fun scheme ->
      let plain = loaded_store ~indexes:false scheme dom in
      let indexed = loaded_store scheme dom in
      List.concat_map
        (fun qid ->
          let xpath = xpath_of qid in
          ignore
            (K.check
               (Store.query_values plain 0 xpath = Store.query_values indexed 0 xpath)
               (qid ^ " indexed vs unindexed on " ^ scheme));
          K.compare cfg
            [ ("no", K.timed (query plain xpath)); ("yes", K.timed (query indexed xpath)) ]
          |> List.map (fun (ix, t) ->
                 [
                   ("scheme", K.Text scheme); ("query", K.Text qid); ("indexes", K.Text ix);
                   ("time", K.Time t);
                 ]))
        [ "Q1"; "Q5"; "Q9" ])
    [ "edge"; "interval"; "dewey" ]
  |> K.report cfg ~id:"F3" ~title:"F3: effect of B+-tree indexes, ratio vs unindexed" ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* T4: SQL complexity of translated queries *)

let t4 cfg =
  let dom = auction ~scale:0.05 in
  List.concat_map
    (fun scheme ->
      let store = loaded_store scheme dom in
      List.map
        (fun (q : Xmlwork.Queries.query) ->
          let r = Store.query store 0 q.Xmlwork.Queries.xpath in
          [
            ("query", K.Text q.Xmlwork.Queries.qid); ("scheme", K.Text scheme);
            ("mode", K.Text (if r.Store.fallback then "fallback" else "sql"));
            ("statements", K.Int (List.length r.Store.sql)); ("joins", K.Int r.Store.joins);
          ])
        workload)
    schemes
  |> K.report cfg ~id:"T4" ~title:"T4: SQL complexity per translated query (statements and joins)"
       ~scale:[ 0.05 ]

(* ------------------------------------------------------------------ *)
(* T5: DTD inlining statistics *)

let t5 cfg =
  List.map
    (fun (name, dtd) ->
      let tables = (Xmlshred.Inline.derive_layout dtd).Xmlshred.Inline.tables in
      [
        ("dtd", K.Text name); ("element_types", K.Int (List.length (Xmlkit.Dtd.element_names dtd)));
        ("tables", K.Int (List.length tables));
        ( "columns",
          K.Int
            (List.fold_left
               (fun n t -> n + List.length (Xmlshred.Inline.table_columns t))
               0 tables) );
        ( "tabled_types",
          K.Text (String.concat " " (List.map (fun t -> t.Xmlshred.Inline.t_type) tables)) );
      ])
    [
      ("auction", Lazy.force Xmlwork.Auction.dtd);
      ("bibliography", Lazy.force Xmlwork.Bibliography.dtd);
      ("recursive parts", Lazy.force Xmlwork.Deep.dtd);
    ]
  |> K.report cfg ~id:"T5" ~title:"T5: DTD inlining statistics (element types vs. generated tables)"
       ~scale:[]

(* ------------------------------------------------------------------ *)
(* T6: XMill-style compression (structure/data separation) *)

let other_docs =
  [
    ( "bibliography",
      Xmlwork.Bibliography.generate ~params:{ Xmlwork.Bibliography.default with entries = 400 } ()
    );
    ("parts depth 10", Xmlwork.Deep.generate ~params:{ Xmlwork.Deep.default with depth = 10 } ());
  ]

let t6 cfg =
  let scale = K.scales cfg [ 0.5; 1.0 ] in
  List.map (fun sc -> (Printf.sprintf "auction %g" sc, auction ~scale:sc)) scale @ other_docs
  |> List.map (fun (name, dom) ->
         let s = Xmlkit.Compress.measure dom in
         let packed = Xmlkit.Compress.encode dom in
         let kib n = K.Num (float_of_int n /. 1024.) in
         let ratio n = K.Num (float_of_int s.Xmlkit.Compress.plain_bytes /. float_of_int n) in
         [
           ("document", K.Text name); ("plain_kib", kib s.Xmlkit.Compress.plain_bytes);
           ("flat_kib", kib s.Xmlkit.Compress.flat_bytes);
           ("xmill_kib", kib s.Xmlkit.Compress.xmill_bytes);
           ("flat_x", ratio s.Xmlkit.Compress.flat_bytes);
           ("xmill_x", ratio s.Xmlkit.Compress.xmill_bytes);
         ]
         @ List.map time_cell
             (K.compare cfg
                [
                  ("encode", K.timed (fun () -> Xmlkit.Compress.encode dom));
                  ("decode", K.timed (fun () -> Xmlkit.Compress.decode packed));
                ])
         @ [
             ( "identical",
               K.Bool
                 (K.check
                    (Dom.equal dom (Xmlkit.Compress.decode packed))
                    (name ^ " compression round trip")) );
           ])
  |> K.report cfg ~id:"T6"
       ~title:"T6: compression (plain vs flat-Huffman vs XMill-style separation, KiB and ratios)"
       ~scale

(* ------------------------------------------------------------------ *)
(* T7: DataGuide structural summaries; the Q1 estimate must be exact *)

let t7 cfg =
  let scale = K.scales cfg [ 0.5; 2.0 ] in
  let q1 = [ `Child "site"; `Child "regions"; `Child "europe"; `Child "item"; `Child "name" ] in
  List.map (fun sc -> (Printf.sprintf "auction %g" sc, auction ~scale:sc, true)) scale
  @ List.map (fun (n, d) -> (n, d, false)) other_docs
  |> List.map (fun (name, dom, is_auction) ->
         let ix = Index.of_document dom in
         let dg = Xmlkit.Dataguide.of_index ix in
         let nodes = Dom.count_nodes dom in
         let size = Xmlkit.Dataguide.size dg in
         [
           ("document", K.Text name); ("nodes", K.Int nodes); ("guide_size", K.Int size);
           ("compression_x", K.Num (float_of_int nodes /. float_of_int (max 1 size)));
           ("build", K.Time (K.measure cfg (K.timed (fun () -> Xmlkit.Dataguide.of_index ix))));
         ]
         @
         if is_auction then
           let est = Xmlkit.Dataguide.estimate dg q1 in
           let actual =
             List.length (Xpathkit.Eval.select_nodes ix "/site/regions/europe/item/name")
           in
           [
             ("q1_estimate", K.Int est);
             ("q1_exact", K.Bool (K.check (est = actual) (name ^ " Q1 estimate equals count")));
           ]
         else [])
  |> K.report cfg ~id:"T7" ~title:"T7: strong DataGuide summary (distinct paths vs document nodes)"
       ~scale

(* ------------------------------------------------------------------ *)
(* F5: in-place update cost (the Dewey-vs-Interval asymmetry). Each
   variant appends one item early in document order and deletes it
   again, timing its own half; the document must come back unchanged. *)

let f5 cfg =
  let scale = K.scales cfg [ 0.25; 0.5; 1.0 ] in
  let item =
    Dom.element "item" ~attrs:[ Dom.attr "id" "itemX" ]
      (List.map
         (fun (tag, text) -> Dom.element tag [ Dom.text text ])
         [
           ("name", "new thing"); ("category", "tools"); ("location", "Japan"); ("quantity", "1");
           ("payment", "Cash"); ("keyword", "fresh"); ("description", "a freshly appended item");
         ])
  in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      List.concat_map
        (fun scheme ->
          let store = Store.create scheme in
          let doc = Store.add_document store dom in
          let append () = Store.append_child store doc ~parent:"/site/regions/africa" item in
          let delete () =
            Store.delete_matching store doc "/site/regions/africa/item[@id='itemX']"
          in
          let costs = Hashtbl.create 2 in
          let timings =
            K.compare cfg
              [
                ( "append",
                  fun () ->
                    let c, t = K.time append in
                    Hashtbl.replace costs "append" c;
                    ignore (delete ());
                    t );
                ( "delete",
                  fun () ->
                    ignore (append ());
                    let c, t = K.time delete in
                    Hashtbl.replace costs "delete" c;
                    t );
              ]
          in
          ignore
            (K.check
               (Dom.equal dom (Store.get_document store doc))
               (scheme ^ " append+delete round trip"));
          List.map
            (fun (op, t) ->
              let c = Hashtbl.find costs op in
              [
                ("scale", K.Num sc); ("nodes", K.Int (Dom.count_nodes dom));
                ("scheme", K.Text scheme); ("op", K.Text op); ("time", K.Time t);
                ("ins", K.Int c.Store.rows_inserted); ("upd", K.Int c.Store.rows_updated);
                ("del", K.Int c.Store.rows_deleted);
              ])
            timings)
        [ "edge"; "dewey"; "interval" ])
    scale
  |> K.report cfg ~id:"F5"
       ~title:"F5: in-place update cost (append/delete one item early in document order)" ~scale

(* ------------------------------------------------------------------ *)
(* F6: ablation — Edge chain translation (one join-chain statement) vs
   stepwise frontier evaluation for the same child-path queries *)

let f6 cfg =
  let scale = K.scales cfg [ 0.5; 1.0; 2.0 ] in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      let db = Relstore.Database.create () in
      Xmlshred.Edge.create_schema db;
      Xmlshred.Edge.create_indexes db;
      let session = Relstore.Database.load_session db in
      Xmlshred.Edge.shred_bulk session ~doc:0 (Index.of_document dom);
      ignore (Relstore.Database.finish_session session);
      List.concat_map
        (fun qid ->
          let simple =
            Option.get (Xmlshred.Pathquery.analyze (Xpathkit.Parser.parse_path (xpath_of qid)))
          in
          let chain () =
            let q, params = Xmlshred.Edge.chain_query ~doc:0 simple in
            Xmlshred.Mapping.int_column
              (Relstore.Database.query_prepared ~params db (Relstore.Database.prepare_query db q))
          in
          let stepwise () =
            Xmlshred.Frontier.stepwise (module Xmlshred.Edge.Scheme) db ~doc:0 simple
          in
          let targets = chain () in
          let step_answer, step_sqls = stepwise () in
          let step_targets = Xmlshred.Frontier.ids step_answer in
          ignore (K.check (targets = step_targets) (qid ^ " chain vs stepwise"));
          K.compare cfg [ ("chain", K.timed chain); ("stepwise", K.timed stepwise) ]
          |> List.map (fun (mode, t) ->
                 [
                   ("scale", K.Num sc); ("nodes", K.Int (Dom.count_nodes dom));
                   ("query", K.Text qid); ("mode", K.Text mode); ("time", K.Time t);
                   ("stmts", K.Int (if mode = "chain" then 1 else List.length step_sqls));
                   ("results", K.Int (List.length targets));
                 ]))
        [ "Q1"; "Q4"; "Q8" ])
    scale
  |> K.report cfg ~id:"F6" ~title:"F6: ablation — Edge join-chain SQL vs stepwise frontier evaluation"
       ~scale

(* ------------------------------------------------------------------ *)
(* F7: prepared-statement plan cache — every cold run plans every
   statement (cache off); a cached run re-executes after a seeding run *)

let f7 cfg =
  let sc = K.scale cfg 0.5 in
  let dom = auction ~scale:sc in
  List.concat_map
    (fun scheme ->
      let store = loaded_store scheme dom in
      List.concat_map
        (fun qid ->
          let xpath = xpath_of qid in
          let probe = Store.query store 0 xpath in
          if probe.Store.fallback then []
          else begin
            let cold () =
              Store.set_plan_cache store false;
              let r, t = K.time (fun () -> Store.query store 0 xpath) in
              Store.set_plan_cache store true;
              ignore (K.check (r.Store.values = probe.Store.values) (qid ^ " cold on " ^ scheme));
              t
            in
            let cached () =
              ignore (Store.query store 0 xpath);
              K.timed (query store xpath) ()
            in
            let timings = K.compare cfg [ ("cold", cold); ("cached", cached) ] in
            Store.reset_cache_stats store;
            ignore
              (K.check
                 (Store.query_values store 0 xpath = probe.Store.values)
                 (qid ^ " cached on " ^ scheme));
            let hits, misses, _, _ = Store.cache_stats store in
            [
              [ ("scheme", K.Text scheme); ("query", K.Text qid) ]
              @ List.map time_cell timings
              @ [ ("cache_hits", K.Int hits); ("cache_misses", K.Int misses) ];
            ]
          end)
        [ "Q1"; "Q4"; "Q5"; "Q8" ])
    indexed_schemes
  |> K.report cfg ~id:"F7" ~title:"F7: plan cache — cold vs cached plan latency" ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F8: EXPLAIN ANALYZE — per-operator time of the executed plans for Q1
   (child chain) and Q5 (descendant), over [repeat] analyzed runs *)

let f8 cfg =
  let sc = K.scale cfg 0.5 in
  let dom = auction ~scale:sc in
  let module P = Relstore.Plan in
  let rec flatten depth (a : P.annotated) =
    (depth, a) :: List.concat_map (flatten (depth + 1)) a.P.an_children
  in
  let operators r =
    List.concat
      (List.mapi (fun si (_, a) -> List.map (fun x -> (si, x)) (flatten 0 a)) r.Store.analyzed)
  in
  List.concat_map
    (fun scheme ->
      let store = loaded_store scheme dom in
      List.concat_map
        (fun qid ->
          let xpath = xpath_of qid in
          (* warm the plan cache so F8 measures execution, not planning *)
          ignore (Store.query store 0 xpath);
          let runs =
            List.init cfg.K.repeat (fun _ -> operators (Store.query ~analyze:true store 0 xpath))
          in
          List.mapi
            (fun i (si, (depth, (a : P.annotated))) ->
              let ns =
                List.map (fun ops -> float_of_int (snd (snd (List.nth ops i))).P.an_ns /. 1e9) runs
              in
              [
                ("scheme", K.Text scheme); ("query", K.Text qid); ("stmt", K.Int si);
                ("depth", K.Int depth);
                ("op", K.Text (P.annotated_op a)); ("rows", K.Int a.P.an_rows);
                ("batches", K.Int a.P.an_batches);
                ("time", K.Time (K.summarize ns));
              ])
            (List.hd runs))
        [ "Q1"; "Q5" ])
    [ "edge"; "interval"; "dewey" ]
  |> K.report cfg ~id:"F8" ~title:"F8: EXPLAIN ANALYZE — per-operator actuals" ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F9: tracing overhead — the F6 query workload under the edge scheme
   with tracing off, sampled at 1%, and always-on *)

let f9 cfg =
  let sc = K.scale cfg 0.5 in
  let store = loaded_store "edge" (auction ~scale:sc) in
  let modes =
    [
      ("off", Obskit.Trace.Off); ("ratio-0.01", Obskit.Trace.Ratio 0.01);
      ("always", Obskit.Trace.Always);
    ]
  in
  let traced sampling f =
    Obskit.Trace.set_sampling sampling;
    Obskit.Trace.clear ();
    let r = f () in
    Obskit.Trace.set_sampling Obskit.Trace.Off;
    r
  in
  List.concat_map
    (fun qid ->
      let xpath = xpath_of qid in
      K.compare cfg
        (List.map (fun (m, s) -> (m, fun () -> traced s (K.timed (query store xpath)))) modes)
      |> List.map (fun (m, t) ->
             let spans =
               traced (List.assoc m modes) (fun () ->
                   query store xpath ();
                   List.length (Obskit.Trace.spans ()))
             in
             [
               ("query", K.Text qid); ("mode", K.Text m); ("time", K.Time t);
               ("spans_per_query", K.Int spans);
             ]))
    [ "Q1"; "Q4"; "Q8" ]
  |> K.report cfg ~id:"F9" ~title:"F9: tracing overhead — off vs 1%-sampled vs always-on (edge)"
       ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F10: statically-empty fast path — queries the document's DataGuide
   proves empty, answered with and without the short-circuit, plus a
   non-empty control query where the guide probe proves nothing *)

let f10 cfg =
  let sc = K.scale cfg 0.5 in
  let dom = auction ~scale:sc in
  List.concat_map
    (fun scheme ->
      let store = loaded_store scheme dom in
      let hits () =
        Relstore.Metrics.counter ~label:(Store.metrics_label store) "store.query.fastpath_empty"
      in
      List.map
        (fun (qname, xpath) ->
          let run on () =
            Store.set_empty_fastpath store on;
            K.timed (query store xpath) ()
          in
          let timings = K.compare cfg [ ("off", run false); ("on", run true) ] in
          Store.set_empty_fastpath store false;
          let off = Store.query_values store 0 xpath in
          Store.set_empty_fastpath store true;
          let before = hits () in
          let on = Store.query_values store 0 xpath in
          ignore (K.check (off = on) (qname ^ " fast path on " ^ scheme));
          [ ("scheme", K.Text scheme); ("query", K.Text qname); ("xpath", K.Text xpath) ]
          @ List.map time_cell timings
          @ [ ("fastpath_hit", K.Bool (hits () > before)) ])
        [
          ("empty-shallow", "/site/nowhere");
          ("empty-deep", "/site/people/person/profile/nowhere");
          ("empty-descendant", "//item/bogus");
          ("control-nonempty", "/site//item/name");
        ])
    [ "edge"; "interval"; "dewey" ]
  |> K.report cfg ~id:"F10" ~title:"F10: statically-empty fast path — DataGuide short-circuit off vs on"
       ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F11: bulk loading — each document shreds through a session that
   appends every row first and builds each B+-tree bottom-up from one
   sort; rows/s per indexed scheme, answers checked against the native
   evaluator *)

let f11 cfg =
  let scale = K.scales cfg [ 0.25; 0.5; 1.0; 2.0 ] in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      let native = native_answers dom in
      List.map
        (fun scheme ->
          let t = K.measure cfg (K.timed (fun () -> loaded_store scheme dom)) in
          let store = loaded_store scheme dom in
          let rows = (Store.stats store).Store.total_rows in
          [
            ("scale", K.Num sc); ("scheme", K.Text scheme); ("rows", K.Int rows);
            ("load", K.Time t);
            ("rows_per_s", K.Num (float_of_int rows /. t.K.median));
            ( "answers",
              K.Bool
                (K.check (answers store = native)
                   (Printf.sprintf "Q1-Q12 on %s at %g" scheme sc)) );
          ])
        indexed_schemes)
    scale
  |> K.report cfg ~id:"F11" ~title:"F11: bulk loading — rows/s with bottom-up index builds" ~scale

(* ------------------------------------------------------------------ *)
(* F12: (a) throughput of the hot relational operators on a synthetic
   table; (b) descendant-axis queries on the interval scheme with the
   staircase structural join off and on (plan cache off, so every run
   replans and the toggle takes effect) *)

let f12 cfg =
  let sc = K.scale cfg 1.0 in
  let n = max 1_000 (int_of_float (200_000. *. sc)) in
  let db = Relstore.Database.create () in
  ignore (Relstore.Database.exec db "CREATE TABLE t (id INTEGER NOT NULL, k INTEGER, v INTEGER)");
  Relstore.Database.with_session db (fun s ->
      for i = 0 to n - 1 do
        Relstore.Database.session_insert s "t"
          Relstore.Value.[| Int i; Int (i mod 1000); Int (i * 7 mod 97) |]
      done);
  let operators =
    List.map
      (fun (op, sql) ->
        let t = K.measure cfg (K.timed (fun () -> Relstore.Database.query db sql)) in
        [
          ("kind", K.Text "executor"); ("case", K.Text op); ("variant", K.Text "batched");
          ("time", K.Time t);
          ("rows", K.Int n); ("rows_per_s", K.Num (float_of_int n /. t.K.median));
        ])
      [
        ("filter", "SELECT id, v FROM t WHERE v < 48");
        ("project", "SELECT id + v, k FROM t");
        ("count", "SELECT count(*) FROM t");
        ("aggregate", "SELECT k, count(*), sum(v) FROM t GROUP BY k");
        ("hash-join", "SELECT count(*) FROM t a, t b WHERE a.id = b.id");
      ]
  in
  let store = loaded_store "interval" (auction ~scale:sc) in
  Relstore.Database.set_plan_cache (Store.database store) false;
  let run stair xpath =
    Relstore.Planner.set_staircase stair;
    Store.query_values store 0 xpath
  in
  let staircase =
    List.concat_map
      (fun (qid, xpath) ->
        let matches = run true xpath in
        ignore (K.check (run false xpath = matches) (qid ^ " staircase vs nested loop"));
        K.compare cfg
          [
            ("nested-loop", K.timed (fun () -> run false xpath));
            ("staircase", K.timed (fun () -> run true xpath));
          ]
        |> List.map (fun (v, t) ->
               [
                 ("kind", K.Text "staircase"); ("case", K.Text qid); ("variant", K.Text v);
                 ("time", K.Time t);
                 ("rows", K.Int (List.length matches));
                 ("rows_per_s", K.Num (float_of_int (List.length matches) /. t.K.median));
               ]))
      [
        (* Q6 from the workload, then descendant steps whose ancestor sets
           are large — the shapes where the nested loop goes quadratic *)
        ("Q6", "/site//item/name");
        ("item-keyword", "//item//keyword");
        ("auction-increase", "//open_auction//increase");
        ("person-age", "//person//age");
      ]
  in
  Relstore.Planner.set_staircase true;
  K.report cfg ~id:"F12"
    ~title:"F12: (a) executor throughput; (b) staircase join off vs on, interval scheme"
    ~scale:[ sc ] (operators @ staircase)

(* ------------------------------------------------------------------ *)
(* F13: durability — what the write-ahead log costs at load time and what
   recovery costs at open time, each variant on a fresh directory: an
   in-memory load, a durable load (every document commit is a WAL append
   + fsync), recovery by full WAL replay (crash before any checkpoint),
   reopening from a checkpoint image with an empty log, and the
   checkpoint itself. Recovered answers must equal the in-memory store's. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmlstore_bench_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

(* A durable interval store holding [dom], then [f] over its directory. *)
let with_durable dom f =
  let dir = fresh_dir () in
  let s = Store.create ~durable:dir "interval" in
  ignore (Store.add_document s dom);
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir s)

let f13 cfg =
  let scale = K.scales cfg [ 0.25; 0.5; 1.0 ] in
  List.concat_map
    (fun sc ->
      let dom = auction ~scale:sc in
      let reference = answers (loaded_store "interval" dom) in
      let crash s = Relstore.Database.abandon (Store.database s) in
      let checkpointed s =
        Store.checkpoint s;
        Store.close s
      in
      let timings =
        K.compare cfg
          [
            ("memory", K.timed (fun () -> loaded_store "interval" dom));
            ( "wal",
              fun () ->
                let dir = fresh_dir () in
                let s, t =
                  K.time (fun () ->
                      let s = Store.create ~durable:dir "interval" in
                      ignore (Store.add_document s dom);
                      s)
                in
                Store.close s;
                rm_rf dir;
                t );
            ( "replay",
              fun () ->
                with_durable dom (fun dir s ->
                    crash s;
                    let r, t = K.time (fun () -> Store.open_durable dir) in
                    Store.close r;
                    t) );
            ( "image_open",
              fun () ->
                with_durable dom (fun dir s ->
                    checkpointed s;
                    let r, t = K.time (fun () -> Store.open_durable dir) in
                    Store.close r;
                    t) );
            ( "checkpoint",
              fun () ->
                with_durable dom (fun _ s ->
                    let t = snd (K.time (fun () -> Store.checkpoint s)) in
                    Store.close s;
                    t) );
          ]
      in
      let replayed, imaged, rows =
        with_durable dom (fun dir s ->
            crash s;
            let r = Store.open_durable dir in
            let replayed = answers r in
            checkpointed r;
            let i = Store.open_durable dir in
            let rows = (Store.stats i).Store.total_rows in
            let imaged = answers i in
            Store.close i;
            (replayed, imaged, rows))
      in
      let ok =
        K.check
          (replayed = reference && imaged = reference)
          (Printf.sprintf "recovered Q1-Q12 at %g" sc)
      in
      List.map
        (fun (step, t) ->
          [
            ("scale", K.Num sc); ("rows", K.Int rows); ("step", K.Text step); ("time", K.Time t);
            ("answers", K.Bool ok);
          ])
        timings)
    scale
  |> K.report cfg ~id:"F13"
       ~title:"F13: durability — WAL load and recovery cost vs in-memory load (interval)" ~scale

(* ------------------------------------------------------------------ *)
(* F14: telemetry overhead — a durable load plus Q1-Q12 ten times over,
   with tracing off against the production posture (metrics always on,
   1% trace sampling). Arming the slow log is excluded: it captures every
   query's ANALYZE tree, a diagnostic cost, not the always-on telemetry
   this experiment budgets (3%). *)

let f14 cfg =
  let sc = K.scale cfg 0.5 in
  let dom = auction ~scale:sc in
  let workload_run sampling () =
    Obskit.Trace.set_sampling sampling;
    let dir = fresh_dir () in
    let t =
      K.timed
        (fun () ->
          let s = Store.create ~durable:dir "interval" in
          ignore (Store.add_document s dom);
          for _ = 1 to 10 do
            ignore (answers s)
          done;
          Store.close s)
        ()
    in
    rm_rf dir;
    Obskit.Trace.set_sampling Obskit.Trace.Off;
    Obskit.Trace.clear ();
    t
  in
  let timings =
    K.compare cfg
      [
        ("off", workload_run Obskit.Trace.Off);
        ("metrics+1%", workload_run (Obskit.Trace.Ratio 0.01));
      ]
  in
  let overhead = (Option.get (snd (List.nth timings 1)).K.ratio -. 1.) *. 100. in
  [
    [ ("scale", K.Num sc) ]
    @ List.map time_cell timings
    @ [
        ("overhead_pct", K.Num overhead); ("budget_pct", K.Num 3.);
        ("within_budget", K.Text (if overhead < 3. then "yes" else "over"));
      ];
  ]
  |> K.report cfg ~id:"F14" ~title:"F14: telemetry overhead — tracing off vs metrics + 1% sampling"
       ~scale:[ sc ]

(* ------------------------------------------------------------------ *)
(* F4: micro-benchmarks — per-operation time of each component, from a
   fixed number of operations per round *)

let f4 cfg =
  let doc_src = Xmlkit.Serializer.to_string (auction ~scale:0.05) in
  let dom = Xmlkit.Parser.parse doc_src in
  let ix = Index.of_document dom in
  let store = loaded_store "interval" dom in
  let ignore_ f () = ignore (f ()) in
  List.map
    (fun (name, ops, f) ->
      let t =
        K.measure cfg (fun () ->
            snd
              (K.time (fun () ->
                   for _ = 1 to ops do
                     f ()
                   done))
            /. float_of_int ops)
      in
      [ ("benchmark", K.Text name); ("ops_per_round", K.Int ops); ("time", K.Time t) ])
    [
      ("xml-parse", 20, ignore_ (fun () -> Xmlkit.Parser.parse doc_src));
      ("xml-serialize", 20, ignore_ (fun () -> Xmlkit.Serializer.to_string dom));
      ("index-build", 20, ignore_ (fun () -> Index.of_document dom));
      ( "xpath-parse",
        2000,
        ignore_ (fun () -> Xpathkit.Parser.parse "/site/people/person[@id='p1']/name") );
      ("xpath-native-q5", 50, ignore_ (fun () -> Xpathkit.Eval.select_strings ix "//keyword"));
      ( "sql-parse",
        2000,
        ignore_ (fun () ->
            Relstore.Sql_parser.parse_statement
              "SELECT a.x, count(*) FROM t a, u b WHERE a.k = b.k GROUP BY a.x ORDER BY a.x") );
      ("interval-q1", 50, query store "/site/regions/europe/item/name");
      ( "btree-insert-1k",
        20,
        fun () ->
          let t = Relstore.Btree.create () in
          for i = 0 to 999 do
            Relstore.Btree.insert t [| Relstore.Value.Int (i * 37 mod 1000) |] i
          done );
    ]
  |> K.report cfg ~id:"F4" ~title:"F4: micro-benchmarks (time per operation)" ~scale:[ 0.05 ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("T1", t1); ("T2", t2); ("F1", f1); ("F2", f2); ("T3", t3); ("F3", f3); ("T4", t4); ("T5", t5);
    ("T6", t6); ("T7", t7); ("F5", f5); ("F6", f6); ("F7", f7); ("F8", f8); ("F9", f9);
    ("F10", f10);
    ("F11", f11); ("F12", f12); ("F13", f13); ("F14", f14); ("F4", f4);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cfg = if List.mem "--reference" args then K.reference else K.smoke in
  let names = List.filter (fun a -> a <> "--smoke" && a <> "--reference") args in
  let unknown = List.filter (fun n -> not (List.mem_assoc n experiments)) names in
  if unknown <> [] then begin
    Printf.eprintf
      "usage: main.exe [--smoke | --reference] [EXPERIMENT...]\nunknown: %s (available: %s)\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 2
  end;
  List.iter
    (fun name ->
      let (), t = K.time (fun () -> (List.assoc name experiments) cfg) in
      Printf.printf "[%s completed in %.1fs]\n%!" name t)
    (if names = [] then List.map fst experiments else names);
  if !K.failures > 0 then begin
    Printf.eprintf "%d answer check(s) failed\n" !K.failures;
    exit 1
  end
