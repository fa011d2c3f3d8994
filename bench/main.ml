(* Benchmark harness: regenerates every table and figure of the evaluation
   (see DESIGN.md experiment index and EXPERIMENTS.md for paper-expected vs
   measured). Run all experiments with `dune exec bench/main.exe`, or a
   subset with e.g. `dune exec bench/main.exe -- T1 F1`. *)

module Store = Xmlstore.Store
module Dom = Xmlkit.Dom
module Index = Xmlkit.Index

let schemes = [ "textblob"; "tokens"; "edge"; "binary"; "interval"; "dewey"; "universal"; "inline" ]

let auction ~scale ~seed =
  Xmlwork.Auction.generate ~params:{ Xmlwork.Auction.default with scale; seed } ()

let make_store scheme =
  if String.equal scheme "inline" then
    Store.create ~dtd:(Lazy.force Xmlwork.Auction.dtd) scheme
  else Store.create scheme

let loaded_store scheme dom =
  let store = make_store scheme in
  ignore (Store.add_document store dom);
  store

(* ------------------------------------------------------------------ *)
(* T1: storage cost per scheme *)

let t1 () =
  let scales = [ 0.25; 0.5; 1.0 ] in
  let rows =
    List.concat_map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        let nodes = Dom.count_nodes dom in
        List.map
          (fun scheme ->
            let store = loaded_store scheme dom in
            let s = Store.stats store in
            [
              Printf.sprintf "%.2f" scale;
              string_of_int nodes;
              scheme;
              string_of_int (List.length s.Store.tables);
              string_of_int s.Store.total_rows;
              Tables.kb s.Store.total_bytes;
              string_of_int s.Store.total_index_entries;
            ])
          schemes)
      scales
  in
  Tables.print ~title:"T1: storage cost (tuples and bytes per scheme)"
    ~header:[ "scale"; "nodes"; "scheme"; "tables"; "tuples"; "KiB"; "index entries" ]
    rows

(* ------------------------------------------------------------------ *)
(* T2: load (shred) time per scheme *)

let t2 () =
  let scales = [ 0.25; 0.5; 1.0 ] in
  let rows =
    List.concat_map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        let nodes = Dom.count_nodes dom in
        List.map
          (fun scheme ->
            let _, parse_t = Tables.time (fun () -> Index.of_document dom) in
            let _, t =
              Tables.time (fun () ->
                  let store = make_store scheme in
                  ignore (Store.add_document store dom))
            in
            [
              Printf.sprintf "%.2f" scale;
              string_of_int nodes;
              scheme;
              Tables.ms t;
              Tables.ms parse_t;
              Printf.sprintf "%.1f" (float_of_int nodes /. t /. 1000.0);
            ])
          schemes)
      scales
  in
  Tables.print ~title:"T2: document load (shred) time"
    ~header:[ "scale"; "nodes"; "scheme"; "shred ms"; "index ms"; "knodes/s" ] rows

(* ------------------------------------------------------------------ *)
(* F1: query response time across the workload *)

let f1 () =
  let dom = auction ~scale:0.5 ~seed:42 in
  let ix = Index.of_document dom in
  let stores = List.map (fun s -> (s, loaded_store s dom)) schemes in
  let rows =
    List.concat_map
      (fun (q : Xmlwork.Queries.query) ->
        let native_result, native_t =
          Tables.time (fun () -> Xpathkit.Eval.select_strings ix q.Xmlwork.Queries.xpath)
        in
        let native_row =
          [
            q.Xmlwork.Queries.qid; "native"; Tables.ms native_t;
            string_of_int (List.length native_result); "-"; "-";
          ]
        in
        native_row
        :: List.map
             (fun (scheme, store) ->
               let r, t = Tables.time (fun () -> Store.query store 0 q.Xmlwork.Queries.xpath) in
               if r.Store.values <> native_result then
                 Printf.eprintf "F1 MISMATCH: %s on %s\n" q.Xmlwork.Queries.qid scheme;
               [
                 q.Xmlwork.Queries.qid;
                 scheme;
                 Tables.ms t;
                 string_of_int (List.length r.Store.values);
                 string_of_int (List.length r.Store.sql);
                 (if r.Store.fallback then "fallback" else string_of_int r.Store.joins);
               ])
             stores)
      Xmlwork.Queries.auction_queries
  in
  Tables.print ~title:"F1: query response time, auction workload (scale 0.5)"
    ~header:[ "query"; "scheme"; "ms"; "results"; "stmts"; "joins" ] rows

(* ------------------------------------------------------------------ *)
(* F2: scalability of Q1 (child chain) and Q5 (descendant) *)

let f2 () =
  let scales = [ 0.25; 0.5; 1.0; 2.0 ] in
  let queries = [ "Q1"; "Q5" ] in
  let rows =
    List.concat_map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        let nodes = Dom.count_nodes dom in
        let stores = List.map (fun s -> (s, loaded_store s dom)) schemes in
        List.concat_map
          (fun qid ->
            let q = Option.get (Xmlwork.Queries.find qid) in
            List.map
              (fun (scheme, store) ->
                let r, t = Tables.time (fun () -> Store.query store 0 q.Xmlwork.Queries.xpath) in
                [
                  qid;
                  Printf.sprintf "%.2f" scale;
                  string_of_int nodes;
                  scheme;
                  Tables.ms t;
                  string_of_int (List.length r.Store.values);
                ])
              stores)
          queries)
      scales
  in
  Tables.print ~title:"F2: query time vs document size (Q1 child chain, Q5 descendant)"
    ~header:[ "query"; "scale"; "nodes"; "scheme"; "ms"; "results" ] rows

(* ------------------------------------------------------------------ *)
(* T3: full-document reconstruction *)

let t3 () =
  let docs =
    [
      ("auction", auction ~scale:0.5 ~seed:42, None);
      ( "bibliography",
        Xmlwork.Bibliography.generate ~params:{ Xmlwork.Bibliography.default with entries = 300 } (),
        Some (Lazy.force Xmlwork.Bibliography.dtd) );
    ]
  in
  let rows =
    List.concat_map
      (fun (doc_name, dom, dtd) ->
        List.filter_map
          (fun scheme ->
            let store =
              match (scheme, dtd) with
              | "inline", Some d -> Some (Store.create ~dtd:d scheme)
              | "inline", None -> Some (Store.create ~dtd:(Lazy.force Xmlwork.Auction.dtd) scheme)
              | _ -> Some (Store.create scheme)
            in
            Option.map
              (fun store ->
                ignore (Store.add_document store dom);
                let back, t = Tables.time (fun () -> Store.get_document store 0) in
                [
                  doc_name;
                  string_of_int (Dom.count_nodes dom);
                  scheme;
                  Tables.ms t;
                  (if Dom.equal dom back then "yes" else "NO!");
                ])
              store)
          schemes)
      docs
  in
  Tables.print ~title:"T3: full-document reconstruction time (round-trip verified)"
    ~header:[ "document"; "nodes"; "scheme"; "ms"; "identical" ] rows

(* ------------------------------------------------------------------ *)
(* F3: effect of secondary indexes *)

let f3 () =
  let dom = auction ~scale:1.0 ~seed:42 in
  let queries = [ "Q1"; "Q5"; "Q9" ] in
  let rows =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun indexed ->
            let store =
              if String.equal scheme "inline" then
                Store.create ~indexes:indexed ~dtd:(Lazy.force Xmlwork.Auction.dtd) scheme
              else Store.create ~indexes:indexed scheme
            in
            ignore (Store.add_document store dom);
            List.map
              (fun qid ->
                let q = Option.get (Xmlwork.Queries.find qid) in
                let _, t = Tables.time (fun () -> Store.query store 0 q.Xmlwork.Queries.xpath) in
                [ scheme; (if indexed then "yes" else "no"); qid; Tables.ms t ])
              queries)
          [ false; true ])
      [ "edge"; "interval"; "dewey" ]
  in
  Tables.print ~title:"F3: effect of B+-tree indexes (scale 1.0)"
    ~header:[ "scheme"; "indexed"; "query"; "ms" ] rows

(* ------------------------------------------------------------------ *)
(* T4: SQL complexity of translated queries *)

let t4 () =
  let dom = auction ~scale:0.05 ~seed:42 in
  let stores = List.map (fun s -> (s, loaded_store s dom)) schemes in
  let rows =
    List.concat_map
      (fun (q : Xmlwork.Queries.query) ->
        List.map
          (fun (scheme, store) ->
            let r = Store.query store 0 q.Xmlwork.Queries.xpath in
            [
              q.Xmlwork.Queries.qid;
              scheme;
              (if r.Store.fallback then "fallback" else "sql");
              string_of_int (List.length r.Store.sql);
              string_of_int r.Store.joins;
            ])
          stores)
      Xmlwork.Queries.auction_queries
  in
  Tables.print
    ~title:"T4: SQL complexity per translated query (statements and joins)"
    ~header:[ "query"; "scheme"; "mode"; "statements"; "joins" ]
    rows

(* ------------------------------------------------------------------ *)
(* T5: DTD inlining statistics *)

let t5 () =
  let dtds =
    [
      ("auction", Lazy.force Xmlwork.Auction.dtd);
      ("bibliography", Lazy.force Xmlwork.Bibliography.dtd);
      ("recursive parts", Lazy.force Xmlwork.Deep.dtd);
    ]
  in
  let rows =
    List.map
      (fun (doc_name, dtd) ->
        let layout = Xmlshred.Inline.derive_layout dtd in
        let tables = layout.Xmlshred.Inline.tables in
        let columns =
          List.fold_left
            (fun acc t -> acc + List.length (Xmlshred.Inline.table_columns t))
            0 tables
        in
        [
          doc_name;
          string_of_int (List.length (Xmlkit.Dtd.element_names dtd));
          string_of_int (List.length tables);
          string_of_int columns;
          String.concat " "
            (List.map (fun t -> t.Xmlshred.Inline.t_type) tables);
        ])
      dtds
  in
  Tables.print ~title:"T5: DTD inlining statistics (element types vs. generated tables)"
    ~header:[ "DTD"; "element types"; "tables"; "columns"; "tabled types" ]
    rows

(* ------------------------------------------------------------------ *)
(* T6: XMill-style compression (structure/data separation) *)

let t6 () =
  let docs =
    [
      ("auction 0.5", auction ~scale:0.5 ~seed:42);
      ("auction 1.0", auction ~scale:1.0 ~seed:42);
      ( "bibliography",
        Xmlwork.Bibliography.generate
          ~params:{ Xmlwork.Bibliography.default with entries = 400 }
          () );
      ("parts", Xmlwork.Deep.generate ~params:{ Xmlwork.Deep.default with depth = 10 } ());
    ]
  in
  let rows =
    List.map
      (fun (doc_name, dom) ->
        let s = Xmlkit.Compress.measure dom in
        let packed, t_enc = Tables.time (fun () -> Xmlkit.Compress.encode dom) in
        let back, t_dec = Tables.time (fun () -> Xmlkit.Compress.decode packed) in
        let ratio a b = Printf.sprintf "%.2f" (float_of_int a /. float_of_int b) in
        [
          doc_name;
          Tables.kb s.Xmlkit.Compress.plain_bytes;
          Tables.kb s.Xmlkit.Compress.flat_bytes;
          Tables.kb s.Xmlkit.Compress.xmill_bytes;
          ratio s.Xmlkit.Compress.plain_bytes s.Xmlkit.Compress.flat_bytes;
          ratio s.Xmlkit.Compress.plain_bytes s.Xmlkit.Compress.xmill_bytes;
          Tables.ms t_enc;
          Tables.ms t_dec;
          (if Dom.equal dom back then "yes" else "NO!");
        ])
      docs
  in
  Tables.print
    ~title:
      "T6: compression (plain vs flat-Huffman vs XMill-style separation, KiB and ratios)"
    ~header:
      [ "document"; "plain"; "flat"; "xmill"; "flat x"; "xmill x"; "enc ms"; "dec ms"; "identical" ]
    rows

(* ------------------------------------------------------------------ *)
(* T7: DataGuide structural summaries *)

let t7 () =
  let docs =
    [
      ("auction 0.5", auction ~scale:0.5 ~seed:42);
      ("auction 2.0", auction ~scale:2.0 ~seed:42);
      ( "bibliography",
        Xmlwork.Bibliography.generate
          ~params:{ Xmlwork.Bibliography.default with entries = 400 }
          () );
      ("parts depth 10", Xmlwork.Deep.generate ~params:{ Xmlwork.Deep.default with depth = 10 } ());
    ]
  in
  let rows =
    List.map
      (fun (doc_name, dom) ->
        let ix = Index.of_document dom in
        let dg, t_build = Tables.time (fun () -> Xmlkit.Dataguide.of_index ix) in
        let nodes = Dom.count_nodes dom in
        (* estimator exactness on the Q1 child chain (auction docs only) *)
        let exactness =
          if String.length doc_name >= 7 && String.sub doc_name 0 7 = "auction" then begin
            let est =
              Xmlkit.Dataguide.estimate dg
                [ `Child "site"; `Child "regions"; `Child "europe"; `Child "item"; `Child "name" ]
            in
            let actual =
              List.length (Xpathkit.Eval.select_nodes ix "/site/regions/europe/item/name")
            in
            Printf.sprintf "%d=%d" est actual
          end
          else "-"
        in
        [
          doc_name;
          string_of_int nodes;
          string_of_int (Xmlkit.Dataguide.size dg);
          Printf.sprintf "%.1f"
            (float_of_int nodes /. float_of_int (max 1 (Xmlkit.Dataguide.size dg)));
          Tables.ms t_build;
          exactness;
        ])
      docs
  in
  Tables.print
    ~title:"T7: strong DataGuide summary (distinct paths vs document nodes)"
    ~header:[ "document"; "nodes"; "guide size"; "compression x"; "build ms"; "Q1 est=actual" ]
    rows

(* ------------------------------------------------------------------ *)
(* F5: in-place update cost (the Dewey-vs-Interval asymmetry) *)

let f5 () =
  let scales = [ 0.25; 0.5; 1.0 ] in
  let new_item =
    Dom.element "item"
      ~attrs:[ Dom.attr "id" "itemX" ]
      [
        Dom.element "name" [ Dom.text "new thing" ];
        Dom.element "category" [ Dom.text "tools" ];
        Dom.element "location" [ Dom.text "Japan" ];
        Dom.element "quantity" [ Dom.text "1" ];
        Dom.element "payment" [ Dom.text "Cash" ];
        Dom.element "keyword" [ Dom.text "fresh" ];
        Dom.element "description" [ Dom.text "a freshly appended item" ];
      ]
  in
  let rows =
    List.concat_map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        let nodes = Dom.count_nodes dom in
        List.concat_map
          (fun scheme ->
            (* append early in document order: the worst case for interval *)
            let store = Store.create scheme in
            let doc = Store.add_document store dom in
            let cost_append, t_append =
              Tables.time ~repeat:1 (fun () ->
                  Store.append_child store doc ~parent:"/site/regions/africa" new_item)
            in
            let cost_delete, t_delete =
              Tables.time ~repeat:1 (fun () ->
                  Store.delete_matching store doc "/site/regions/africa/item[@id='itemX']")
            in
            [
              [
                Printf.sprintf "%.2f" scale; string_of_int nodes; scheme; "append";
                Tables.ms t_append;
                string_of_int cost_append.Store.rows_inserted;
                string_of_int cost_append.Store.rows_updated;
                string_of_int cost_append.Store.rows_deleted;
              ];
              [
                Printf.sprintf "%.2f" scale; string_of_int nodes; scheme; "delete";
                Tables.ms t_delete;
                string_of_int cost_delete.Store.rows_inserted;
                string_of_int cost_delete.Store.rows_updated;
                string_of_int cost_delete.Store.rows_deleted;
              ];
            ])
          [ "edge"; "dewey"; "interval" ])
      scales
  in
  Tables.print
    ~title:"F5: in-place update cost (append/delete one item early in document order)"
    ~header:[ "scale"; "nodes"; "scheme"; "op"; "ms"; "ins"; "upd"; "del" ]
    rows

(* ------------------------------------------------------------------ *)
(* F6: ablation — Edge chain translation (one join-chain statement) vs
   stepwise frontier evaluation for the same child-path queries *)

let f6 () =
  let queries = [ "Q1"; "Q4"; "Q8" ] in
  let scales = [ 0.5; 1.0; 2.0 ] in
  let rows =
    List.concat_map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        let nodes = Dom.count_nodes dom in
        let db = Relstore.Database.create () in
        Xmlshred.Edge.create_schema db;
        Xmlshred.Edge.create_indexes db;
        Xmlshred.Edge.shred db ~doc:0 (Index.of_document dom);
        List.concat_map
          (fun qid ->
            let q = Option.get (Xmlwork.Queries.find qid) in
            let simple =
              Option.get (Xmlshred.Pathquery.analyze (Xpathkit.Parser.parse_path q.Xmlwork.Queries.xpath))
            in
            let chain_targets, t_chain =
              Tables.time (fun () ->
                  let q, params = Xmlshred.Edge.chain_query ~doc:0 simple in
                  let prepared = Relstore.Database.prepare_query db q in
                  Xmlshred.Mapping.int_column
                    (Relstore.Database.query_prepared ~params db prepared))
            in
            let (step_targets, step_sqls), t_step =
              Tables.time (fun () -> Xmlshred.Edge.stepwise db ~doc:0 simple)
            in
            if chain_targets <> step_targets then Printf.eprintf "F6 MISMATCH on %s\n" qid;
            [
              [
                Printf.sprintf "%.2f" scale; string_of_int nodes; qid; "chain"; Tables.ms t_chain;
                "1"; string_of_int (List.length chain_targets);
              ];
              [
                Printf.sprintf "%.2f" scale; string_of_int nodes; qid; "stepwise";
                Tables.ms t_step;
                string_of_int (List.length step_sqls);
                string_of_int (List.length step_targets);
              ];
            ])
          queries)
      scales
  in
  Tables.print
    ~title:"F6: ablation — Edge join-chain SQL vs stepwise frontier evaluation"
    ~header:[ "scale"; "nodes"; "query"; "mode"; "ms"; "stmts"; "results" ]
    rows

(* ------------------------------------------------------------------ *)
(* F7: prepared-statement plan cache — cold-plan vs cached-plan latency.
   Results are also written to BENCH_plancache.json for machine
   consumption. *)

let f7 () =
  let dom = auction ~scale:0.5 ~seed:42 in
  let queries = [ "Q1"; "Q4"; "Q5"; "Q8" ] in
  let repeat = 25 in
  (* planning overhead is deterministic, so the minimum over repeats is the
     stable estimator — medians flip under GC noise on execution-dominated
     queries *)
  let best times = List.fold_left min infinity times in
  let entries = ref [] in
  let rows =
    List.concat_map
      (fun scheme ->
        let store = loaded_store scheme dom in
        List.filter_map
          (fun qid ->
            let q = Option.get (Xmlwork.Queries.find qid) in
            let xpath = q.Xmlwork.Queries.xpath in
            let probe = Store.query store 0 xpath in
            if probe.Store.fallback then None
            else begin
              (* cold: cache disabled, so every statement execution pays
                 lexing, parsing, and planning *)
              let cold_values = ref probe.Store.values in
              let cold_times =
                List.init repeat (fun _ ->
                    Store.set_plan_cache store false;
                    let r, t = Tables.time ~repeat:1 (fun () -> Store.query store 0 xpath) in
                    Store.set_plan_cache store true;
                    cold_values := r.Store.values;
                    t)
              in
              let cold = best cold_times in
              (* cached: seed once, then every run hits the cache *)
              Store.reset_cache_stats store;
              ignore (Store.query store 0 xpath);
              let cached_values = ref [] in
              let cached_times =
                List.init repeat (fun _ ->
                    let r, t = Tables.time ~repeat:1 (fun () -> Store.query store 0 xpath) in
                    cached_values := r.Store.values;
                    t)
              in
              let cached = best cached_times in
              let hits, misses, _, _ = Store.cache_stats store in
              (* the cache must not change answers *)
              Store.set_plan_cache store false;
              let off = Store.query store 0 xpath in
              Store.set_plan_cache store true;
              let identical =
                !cold_values = !cached_values && off.Store.values = !cached_values
              in
              if not identical then Printf.eprintf "F7 MISMATCH: %s on %s\n" qid scheme;
              let speedup = if cached > 0. then cold /. cached else 0. in
              entries :=
                Printf.sprintf
                  "    {\"scheme\": %S, \"query\": %S, \"cold_ms\": %.4f, \"cached_ms\": %.4f, \
                   \"speedup\": %.2f, \"cache_hits\": %d, \"cache_misses\": %d, \"identical\": \
                   %b}"
                  scheme qid (cold *. 1000.) (cached *. 1000.) speedup hits misses identical
                :: !entries;
              Some
                [
                  scheme; qid; Tables.ms cold; Tables.ms cached;
                  Printf.sprintf "%.2f" speedup; string_of_int hits; string_of_int misses;
                  (if identical then "yes" else "NO!");
                ]
            end)
          queries)
      [ "edge"; "binary"; "interval"; "dewey"; "universal"; "inline" ]
  in
  let oc = open_out "BENCH_plancache.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"plancache\",\n  \"scale\": 0.5,\n  \"repeat\": %d,\n  \"entries\": \
     [\n%s\n  ]\n}\n"
    repeat
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:"F7: plan cache — cold vs cached plan latency (also BENCH_plancache.json)"
    ~header:[ "scheme"; "query"; "cold ms"; "cached ms"; "speedup"; "hits"; "misses"; "identical" ]
    rows

(* ------------------------------------------------------------------ *)
(* F8: EXPLAIN ANALYZE — per-operator time breakdown of the executed plans
   for Q1 (child chain) and Q5 (descendant) under edge, interval, and
   dewey. Written to BENCH_analyze.json for machine consumption. The scale
   is overridable (BENCH_F8_SCALE) so CI can smoke-run it in milliseconds. *)

let f8 () =
  let scale =
    match Sys.getenv_opt "BENCH_F8_SCALE" with
    | Some s -> (try float_of_string s with _ -> 0.5)
    | None -> 0.5
  in
  let dom = auction ~scale ~seed:42 in
  let queries = [ "Q1"; "Q5" ] in
  let module P = Relstore.Plan in
  (* one row per operator, pre-order with depth for indentation *)
  let rec flatten depth (a : P.annotated) =
    (depth, a) :: List.concat_map (flatten (depth + 1)) a.P.an_children
  in
  let rows = ref [] and entries = ref [] in
  List.iter
    (fun scheme ->
      let store = loaded_store scheme dom in
      List.iter
        (fun qid ->
          let q = Option.get (Xmlwork.Queries.find qid) in
          let xpath = q.Xmlwork.Queries.xpath in
          (* warm the plan cache so F8 measures execution, not planning *)
          ignore (Store.query store 0 xpath);
          let r = Store.query ~analyze:true store 0 xpath in
          List.iteri
            (fun si (sql, annot) ->
              List.iter
                (fun (depth, (a : P.annotated)) ->
                  let ms = float_of_int a.P.an_ns /. 1e6 in
                  rows :=
                    [
                      scheme; qid; string_of_int si;
                      String.make (2 * depth) ' ' ^ P.annotated_op a;
                      string_of_int a.P.an_rows; string_of_int a.P.an_batches;
                      Printf.sprintf "%.3f" ms;
                    ]
                    :: !rows;
                  entries :=
                    Printf.sprintf
                      "    {\"scheme\": %S, \"query\": %S, \"stmt\": %d, \"depth\": %d, \"op\": \
                       %S, \"rows\": %d, \"batches\": %d, \"ms\": %.4f}"
                      scheme qid si depth (P.annotated_op a) a.P.an_rows a.P.an_batches ms
                    :: !entries;
                  ignore sql)
                (flatten 0 annot))
            r.Store.analyzed)
        queries)
    [ "edge"; "interval"; "dewey" ];
  let oc = open_out "BENCH_analyze.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"analyze\",\n  \"scale\": %g,\n  \"entries\": [\n%s\n  ]\n}\n" scale
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:
      (Printf.sprintf
         "F8: EXPLAIN ANALYZE — per-operator actuals, scale %g (also BENCH_analyze.json)" scale)
    ~header:[ "scheme"; "query"; "stmt"; "operator"; "rows"; "batches"; "ms" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F9: tracing overhead — the F6 query workload under the edge scheme with
   tracing off, sampled at 1%, and always-on. Planning is warmed first so
   the comparison isolates the instrumentation cost. Written to
   BENCH_trace.json; scale and repeat overridable (BENCH_F9_SCALE,
   BENCH_F9_REPEAT) so CI can smoke-run it. *)

let f9 () =
  let scale =
    match Sys.getenv_opt "BENCH_F9_SCALE" with
    | Some s -> (try float_of_string s with _ -> 0.5)
    | None -> 0.5
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F9_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 25)
    | None -> 25
  in
  let dom = auction ~scale ~seed:42 in
  let queries = [ "Q1"; "Q4"; "Q8" ] in
  let best times = List.fold_left min infinity times in
  let store = loaded_store "edge" dom in
  let modes =
    [
      ("off", Obskit.Trace.Off);
      ("ratio-0.01", Obskit.Trace.Ratio 0.01);
      ("always", Obskit.Trace.Always);
    ]
  in
  let entries = ref [] in
  let rows =
    List.concat_map
      (fun qid ->
        let q = Option.get (Xmlwork.Queries.find qid) in
        let xpath = q.Xmlwork.Queries.xpath in
        (* warm the plan cache and the allocator before the baseline run *)
        for _ = 1 to 3 do
          ignore (Store.query store 0 xpath)
        done;
        (* off first: its best time is the baseline the other modes are
           compared against *)
        let baseline = ref 0. in
        List.map
          (fun (mode_name, sampling) ->
            Obskit.Trace.set_sampling sampling;
            Obskit.Trace.clear ();
            let times =
              List.init repeat (fun _ ->
                  snd (Tables.time ~repeat:1 (fun () -> Store.query store 0 xpath)))
            in
            Obskit.Trace.set_sampling Obskit.Trace.Off;
            let t = best times in
            if String.equal mode_name "off" then baseline := t;
            let overhead_pct =
              if !baseline > 0. then (t -. !baseline) /. !baseline *. 100. else 0.
            in
            let spans = List.length (Obskit.Trace.spans ()) in
            entries :=
              Printf.sprintf
                "    {\"query\": %S, \"mode\": %S, \"best_ms\": %.4f, \"overhead_pct\": %.1f, \
                 \"spans_retained\": %d}"
                qid mode_name (t *. 1000.) overhead_pct spans
              :: !entries;
            [
              qid; mode_name; Tables.ms t;
              Printf.sprintf "%.1f" overhead_pct; string_of_int spans;
            ])
          modes)
      queries
  in
  Obskit.Trace.clear ();
  let oc = open_out "BENCH_trace.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"trace_overhead\",\n  \"scheme\": \"edge\",\n  \"scale\": %g,\n  \
     \"repeat\": %d,\n  \"entries\": [\n%s\n  ]\n}\n"
    scale repeat
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:
      (Printf.sprintf
         "F9: tracing overhead — off vs 1%%-sampled vs always-on, scale %g (also \
          BENCH_trace.json)"
         scale)
    ~header:[ "query"; "mode"; "best ms"; "overhead %"; "spans" ]
    rows

(* ------------------------------------------------------------------ *)
(* F10: statically-empty fast path — queries the document's DataGuide
   proves empty, answered with and without the short-circuit. The guide
   check costs a hash lookup plus a walk over a structure the size of the
   schema, versus translating, planning, and executing SQL that scans real
   tables to return nothing. A non-empty control query shows the guide
   probe is free when it proves nothing. Written to BENCH_lint.json; scale
   and repeat overridable (BENCH_F10_SCALE, BENCH_F10_REPEAT). *)

let f10 () =
  let scale =
    match Sys.getenv_opt "BENCH_F10_SCALE" with
    | Some s -> (try float_of_string s with _ -> 0.5)
    | None -> 0.5
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F10_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 25)
    | None -> 25
  in
  let dom = auction ~scale ~seed:42 in
  let queries =
    [
      ("empty-shallow", "/site/nowhere");
      ("empty-deep", "/site/people/person/profile/nowhere");
      ("empty-descendant", "//item/bogus");
      ("control-nonempty", "/site//item/name");
    ]
  in
  let best times = List.fold_left min infinity times in
  let entries = ref [] in
  let rows =
    List.concat_map
      (fun scheme ->
        let store = loaded_store scheme dom in
        List.map
          (fun (qname, xpath) ->
            (* warm plans and the allocator with the fast path off *)
            Store.set_empty_fastpath store false;
            for _ = 1 to 3 do
              ignore (Store.query store 0 xpath)
            done;
            let measure () =
              best
                (List.init repeat (fun _ ->
                     snd (Tables.time ~repeat:1 (fun () -> Store.query store 0 xpath))))
            in
            let t_off = measure () in
            Store.set_empty_fastpath store true;
            let hits_before =
              Relstore.Metrics.counter ~label:(Store.metrics_label store)
                "store.query.fastpath_empty"
            in
            let t_on = measure () in
            let hits =
              Relstore.Metrics.counter ~label:(Store.metrics_label store)
                "store.query.fastpath_empty"
              - hits_before
            in
            let speedup = if t_on > 0. then t_off /. t_on else 0. in
            entries :=
              Printf.sprintf
                "    {\"scheme\": %S, \"query\": %S, \"xpath\": %S, \"off_ms\": %.4f, \
                 \"on_ms\": %.4f, \"speedup\": %.1f, \"fastpath_hits\": %d}"
                scheme qname xpath (t_off *. 1000.) (t_on *. 1000.) speedup hits
              :: !entries;
            [
              scheme; qname; Tables.ms t_off; Tables.ms t_on;
              Printf.sprintf "%.1fx" speedup; string_of_int hits;
            ])
          queries)
      [ "edge"; "interval"; "dewey" ]
  in
  let oc = open_out "BENCH_lint.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"lint_empty_fastpath\",\n  \"scale\": %g,\n  \"repeat\": %d,\n  \
     \"entries\": [\n%s\n  ]\n}\n"
    scale repeat
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:
      (Printf.sprintf
         "F10: statically-empty fast path — DataGuide short-circuit off vs on, scale %g (also \
          BENCH_lint.json)"
         scale)
    ~header:[ "scheme"; "query"; "off ms"; "on ms"; "speedup"; "hits" ]
    rows

(* ------------------------------------------------------------------ *)
(* F11: bulk loading — row-at-a-time inserts that maintain every index per
   row versus a bulk session that appends all rows first and builds each
   B+-tree bottom-up from one sort of (key, rowid) pairs. Measured per
   indexed scheme across document scales; at scales up to 1.0 the two
   stores' Q1-Q12 answers are additionally compared for byte equality.
   Written to BENCH_load.json; scale(s) and repeat overridable
   (BENCH_F11_SCALE pins a single scale, BENCH_F11_REPEAT). *)

let f11 () =
  let scales =
    match Sys.getenv_opt "BENCH_F11_SCALE" with
    | Some s -> (try [ float_of_string s ] with _ -> [ 1.0 ])
    | None -> [ 0.25; 0.5; 1.0; 2.0 ]
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F11_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 3)
    | None -> 3
  in
  let indexed_schemes = [ "edge"; "binary"; "interval"; "dewey"; "universal"; "inline" ] in
  let entries = ref [] in
  let rows =
    List.concat_map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        List.map
          (fun scheme ->
            let make ~bulk =
              if String.equal scheme "inline" then
                Store.create ~dtd:(Lazy.force Xmlwork.Auction.dtd) ~bulk scheme
              else Store.create ~bulk scheme
            in
            (* Paired repeats over fresh stores: each run pays the full
               shred-and-index cost from an empty database, a major GC
               before each run keeps the collection debt of earlier
               (discarded) stores from being charged to this one, and
               every repeat times a row run immediately followed by a
               bulk run. The reported speedup is the MEDIAN of the
               per-pair ratios: host-speed drift hits both halves of a
               pair alike and cancels in the ratio, where min-of-row /
               min-of-bulk would compare timings taken minutes apart. *)
            let timed ~bulk =
              let store = make ~bulk in
              Gc.full_major ();
              let t0 = Unix.gettimeofday () in
              ignore (Store.add_document store dom);
              (store, Unix.gettimeofday () -. t0)
            in
            let runs = List.init repeat (fun _ -> (timed ~bulk:false, timed ~bulk:true)) in
            let row_store = fst (fst (List.hd runs)) in
            let bulk_store = fst (snd (List.hd runs)) in
            let t_row = Tables.median (List.map (fun ((_, t), _) -> t) runs) in
            let t_bulk = Tables.median (List.map (fun (_, (_, t)) -> t) runs) in
            let nrows = (Store.stats bulk_store).Store.total_rows in
            let speedup =
              Tables.median
                (List.filter_map
                   (fun ((_, r), (_, b)) -> if b > 0. then Some (r /. b) else None)
                   runs)
            in
            let rows_per_sec = if t_bulk > 0. then float_of_int nrows /. t_bulk else 0. in
            let checked = scale <= 1.0 in
            let equal =
              (not checked)
              || List.for_all
                   (fun q ->
                     Store.query_values row_store 0 q.Xmlwork.Queries.xpath
                     = Store.query_values bulk_store 0 q.Xmlwork.Queries.xpath)
                   Xmlwork.Queries.auction_queries
            in
            if checked && not equal then
              Printf.eprintf "F11: %s scale %g: bulk and row-at-a-time answers DIFFER\n" scheme
                scale;
            entries :=
              Printf.sprintf
                "    {\"scheme\": %S, \"scale\": %g, \"rows\": %d, \"row_ms\": %.2f, \
                 \"bulk_ms\": %.2f, \"speedup\": %.2f, \"bulk_rows_per_sec\": %.0f, \
                 \"queries_equal\": %s}"
                scheme scale nrows (t_row *. 1000.) (t_bulk *. 1000.) speedup rows_per_sec
                (if checked then string_of_bool equal else "\"unchecked\"")
              :: !entries;
            [
              Printf.sprintf "%.2f" scale; scheme; string_of_int nrows; Tables.ms t_row;
              Tables.ms t_bulk; Printf.sprintf "%.2fx" speedup;
              Printf.sprintf "%.0f" rows_per_sec;
              (if checked then if equal then "ok" else "DIFFER" else "-");
            ])
          indexed_schemes)
      scales
  in
  let oc = open_out "BENCH_load.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"bulk_load\",\n  \"repeat\": %d,\n  \"entries\": [\n%s\n  ]\n}\n"
    repeat
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:
      "F11: bulk loading — row-at-a-time vs deferred bottom-up index builds (also \
       BENCH_load.json)"
    ~header:[ "scale"; "scheme"; "rows"; "row ms"; "bulk ms"; "speedup"; "rows/s"; "Q1-12" ]
    rows

(* ------------------------------------------------------------------ *)
(* F12: vectorized execution and the staircase join — (a) throughput of
   the hot relational operators under the batched interpreter, on a
   synthetic table big enough to keep each operator hot; (b)
   descendant-axis workload queries on the interval scheme with the
   staircase structural join toggled off and on (the plan cache is
   disabled so every run replans and the toggle takes effect). Answers
   are compared across both toggles. Written to BENCH_F12.json;
   BENCH_F12_SCALE scales the synthetic row count and the document,
   BENCH_F12_REPEAT the repeats. *)

let f12 () =
  let scale =
    match Sys.getenv_opt "BENCH_F12_SCALE" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F12_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 3)
    | None -> 3
  in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let entries = ref [] in
  (* (a) operator throughput *)
  let n = max 1_000 (int_of_float (200_000. *. scale)) in
  let db = Relstore.Database.create () in
  ignore (Relstore.Database.exec db "CREATE TABLE t (id INTEGER NOT NULL, k INTEGER, v INTEGER)");
  Relstore.Database.with_session db (fun s ->
      for i = 0 to n - 1 do
        Relstore.Database.session_insert s "t"
          [| Relstore.Value.Int i; Relstore.Value.Int (i mod 1000); Relstore.Value.Int (i * 7 mod 97) |]
      done);
  let op_queries =
    [
      ("filter", "SELECT id, v FROM t WHERE v < 48");
      ("project", "SELECT id + v, k FROM t");
      ("count", "SELECT count(*) FROM t");
      ("aggregate", "SELECT k, count(*), sum(v) FROM t GROUP BY k");
      ("hash-join", "SELECT count(*) FROM t a, t b WHERE a.id = b.id");
    ]
  in
  let exec_rows =
    List.map
      (fun (op, sql) ->
        let run () = snd (time (fun () -> Relstore.Database.query db sql)) in
        ignore (run ());
        (* one warm-up fills the plan cache: the runs time pure execution *)
        let t_bat = Tables.median (List.init repeat (fun _ -> run ())) in
        let rps = if t_bat > 0. then float_of_int n /. t_bat else 0. in
        entries :=
          Printf.sprintf
            "    {\"kind\": \"executor\", \"op\": %S, \"rows\": %d, \"batched_ms\": %.2f, \
             \"batched_rows_per_sec\": %.0f}"
            op n (t_bat *. 1000.) rps
          :: !entries;
        [ op; string_of_int n; Tables.ms t_bat; Printf.sprintf "%.0f" rps ])
      op_queries
  in
  Tables.print
    ~title:
      (Printf.sprintf "F12a: executor throughput, %d rows (also BENCH_F12.json)" n)
    ~header:[ "operator"; "rows"; "batched ms"; "batched rows/s" ]
    exec_rows;
  (* (b) staircase join on descendant-axis workload queries *)
  let dom = auction ~scale ~seed:42 in
  let store = loaded_store "interval" dom in
  Relstore.Database.set_plan_cache (Store.database store) false;
  let stair_rows =
    List.map
      (fun (qid, xpath) ->
          let run stair =
            Relstore.Planner.set_staircase stair;
            time (fun () -> Store.query_values store 0 xpath)
          in
          let answers_nl, _ = run false in
          let answers_st, _ = run true in
          let equal = answers_nl = answers_st in
          if not equal then Printf.eprintf "F12: %s staircase answers DIFFER\n" qid;
          let runs = List.init repeat (fun _ -> (snd (run false), snd (run true))) in
          Relstore.Planner.set_staircase true;
          let t_nl = Tables.median (List.map fst runs) in
          let t_st = Tables.median (List.map snd runs) in
          let speedup =
            Tables.median (List.filter_map (fun (a, b) -> if b > 0. then Some (a /. b) else None) runs)
          in
          entries :=
            Printf.sprintf
              "    {\"kind\": \"staircase\", \"query\": %S, \"matches\": %d, \"nl_ms\": %.2f, \
               \"staircase_ms\": %.2f, \"speedup\": %.2f, \"answers_equal\": %b}"
              qid (List.length answers_st) (t_nl *. 1000.) (t_st *. 1000.) speedup equal
            :: !entries;
          [
            qid; string_of_int (List.length answers_st); Tables.ms t_nl; Tables.ms t_st;
            Printf.sprintf "%.2fx" speedup; (if equal then "ok" else "DIFFER");
          ])
      [
        (* Q6 from the workload, then descendant steps whose ancestor sets
           are large — the shapes where the nested loop goes quadratic *)
        ("Q6", "/site//item/name");
        ("item-keyword", "//item//keyword");
        ("auction-increase", "//open_auction//increase");
        ("person-age", "//person//age");
      ]
  in
  let oc = open_out "BENCH_F12.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"vectorized_staircase\",\n  \"scale\": %g,\n  \"repeat\": %d,\n  \
     \"entries\": [\n%s\n  ]\n}\n"
    scale repeat
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:
      (Printf.sprintf
         "F12b: staircase structural join off vs on, interval scheme, scale %g (also \
          BENCH_F12.json)"
         scale)
    ~header:[ "query"; "matches"; "nested-loop ms"; "staircase ms"; "speedup"; "answers" ]
    stair_rows

(* ------------------------------------------------------------------ *)
(* F13: durability — what the write-ahead log costs at load time and what
   recovery costs at open time. Per scale: an in-memory load vs a durable
   load (every document commit is a WAL append + fsync), the checkpoint
   that folds the log into a page image, recovery by full WAL replay
   (crash before any checkpoint), and reopening from a checkpoint image
   with an empty log. Q1-Q12 answers of the recovered store are compared
   byte-for-byte against the in-memory store. Written to BENCH_F13.json;
   BENCH_F13_SCALE pins a single scale, BENCH_F13_REPEAT the repeats. *)

let f13 () =
  let scales =
    match Sys.getenv_opt "BENCH_F13_SCALE" with
    | Some s -> (try [ float_of_string s ] with _ -> [ 0.5 ])
    | None -> [ 0.25; 0.5; 1.0 ]
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F13_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 3)
    | None -> 3
  in
  let dir_counter = ref 0 in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  let fresh_dir () =
    incr dir_counter;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xmlstore_bench_f13_%d_%d" (Unix.getpid ()) !dir_counter)
    in
    rm_rf d;
    d
  in
  let entries = ref [] in
  let rows =
    List.map
      (fun scale ->
        let dom = auction ~scale ~seed:42 in
        let reference = Store.create "interval" in
        ignore (Store.add_document reference dom);
        let timed f =
          Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let runs =
          List.init repeat (fun _ ->
              let _, t_mem =
                timed (fun () ->
                    let s = Store.create "interval" in
                    ignore (Store.add_document s dom))
              in
              (* durable load: shred + per-document WAL commit (fsync) *)
              let dir = fresh_dir () in
              let store, t_wal =
                timed (fun () ->
                    let s = Store.create ~durable:dir "interval" in
                    ignore (Store.add_document s dom);
                    s)
              in
              (* crash before the checkpoint: recovery replays the log *)
              Relstore.Database.abandon (Store.database store);
              let replayed, t_replay = timed (fun () -> Store.open_durable dir) in
              let _, t_ckpt = timed (fun () -> Store.checkpoint replayed) in
              Store.close replayed;
              (* clean reopen: page image only, empty log *)
              let reopened, t_image = timed (fun () -> Store.open_durable dir) in
              let equal =
                List.for_all
                  (fun q ->
                    Store.query_values reference 0 q.Xmlwork.Queries.xpath
                    = Store.query_values reopened 0 q.Xmlwork.Queries.xpath)
                  Xmlwork.Queries.auction_queries
              in
              let nrows = (Store.stats reopened).Store.total_rows in
              Store.close reopened;
              rm_rf dir;
              (t_mem, t_wal, t_replay, t_ckpt, t_image, equal, nrows))
        in
        let med f = Tables.median (List.map f runs) in
        let t_mem = med (fun (t, _, _, _, _, _, _) -> t) in
        let t_wal = med (fun (_, t, _, _, _, _, _) -> t) in
        let t_replay = med (fun (_, _, t, _, _, _, _) -> t) in
        let t_ckpt = med (fun (_, _, _, t, _, _, _) -> t) in
        let t_image = med (fun (_, _, _, _, t, _, _) -> t) in
        let equal = List.for_all (fun (_, _, _, _, _, e, _) -> e) runs in
        let nrows = match runs with (_, _, _, _, _, _, n) :: _ -> n | [] -> 0 in
        let overhead = if t_mem > 0. then t_wal /. t_mem else 0. in
        if not equal then
          Printf.eprintf "F13: scale %g: recovered answers DIFFER from in-memory\n" scale;
        entries :=
          Printf.sprintf
            "    {\"scale\": %g, \"rows\": %d, \"mem_ms\": %.2f, \"wal_ms\": %.2f, \
             \"overhead\": %.2f, \"replay_ms\": %.2f, \"checkpoint_ms\": %.2f, \
             \"image_open_ms\": %.2f, \"queries_equal\": %b}"
            scale nrows (t_mem *. 1000.) (t_wal *. 1000.) overhead (t_replay *. 1000.)
            (t_ckpt *. 1000.) (t_image *. 1000.) equal
          :: !entries;
        [
          Printf.sprintf "%.2f" scale; string_of_int nrows; Tables.ms t_mem; Tables.ms t_wal;
          Printf.sprintf "%.2fx" overhead; Tables.ms t_replay; Tables.ms t_ckpt;
          Tables.ms t_image; (if equal then "ok" else "DIFFER");
        ])
      scales
  in
  let oc = open_out "BENCH_F13.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"durability\",\n  \"scheme\": \"interval\",\n  \"repeat\": %d,\n\
    \  \"entries\": [\n%s\n  ]\n}\n"
    repeat
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  Tables.print
    ~title:
      "F13: durability — WAL overhead at load, recovery by replay vs checkpoint image \
       (interval scheme, also BENCH_F13.json)"
    ~header:
      [ "scale"; "rows"; "mem ms"; "wal ms"; "overhead"; "replay ms"; "ckpt ms"; "image ms";
        "Q1-12" ]
    rows

(* F14: telemetry overhead — the F13 durable-load + query workload run
   with tracing fully off against the production posture (metrics always
   on, 1% trace sampling). Arming the slow log is excluded: it
   deliberately switches every query into EXPLAIN ANALYZE capture mode,
   a diagnostic cost, not the always-on telemetry this experiment
   budgets. Each repeat runs the two variants back to back and the
   reported overhead is the median of the per-pair ratios, which cancels
   machine drift. Written to BENCH_F14.json; the target is under 3%
   overhead. BENCH_F14_SCALE and BENCH_F14_REPEAT pin the workload. *)

let f14 () =
  let scale =
    match Sys.getenv_opt "BENCH_F14_SCALE" with
    | Some s -> (try float_of_string s with _ -> 0.5)
    | None -> 0.5
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F14_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 5)
    | None -> 5
  in
  let dir_counter = ref 0 in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  let fresh_dir () =
    incr dir_counter;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xmlstore_bench_f14_%d_%d" (Unix.getpid ()) !dir_counter)
    in
    rm_rf d;
    d
  in
  let dom = auction ~scale ~seed:42 in
  let workload () =
    let dir = fresh_dir () in
    let s = Store.create ~durable:dir "interval" in
    ignore (Store.add_document s dom);
    (* Q1-12 several times over: the query path is where the span and
       metric instrumentation sits, and repeating it keeps the measured
       region from being dominated by fsync scheduling noise *)
    for _ = 1 to 10 do
      List.iter
        (fun q -> ignore (Store.query_values s 0 q.Xmlwork.Queries.xpath))
        Xmlwork.Queries.auction_queries
    done;
    Store.close s;
    rm_rf dir
  in
  let timed f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  Obskit.Trace.set_sampling Obskit.Trace.Off;
  ignore (timed workload);
  (* warm caches *)
  let run_base () =
    Obskit.Trace.set_sampling Obskit.Trace.Off;
    timed workload
  in
  let run_inst () =
    Obskit.Trace.set_sampling (Obskit.Trace.Ratio 0.01);
    let t = timed workload in
    Obskit.Trace.set_sampling Obskit.Trace.Off;
    Obskit.Trace.clear ();
    t
  in
  (* alternate the order across pairs so a slow stretch of the machine
     penalizes both variants equally *)
  let pairs =
    List.init repeat (fun i ->
        if i mod 2 = 0 then
          let b = run_base () in
          (b, run_inst ())
        else
          let t = run_inst () in
          (run_base (), t))
  in
  (* compare best observed runs: scheduling noise and fsync hiccups only
     ever add time, so the minimum is the robust per-variant cost (the
     median of per-pair ratios swings wildly when one run is disturbed) *)
  let best xs = List.fold_left min infinity xs in
  let base_ms = best (List.map fst pairs) *. 1000. in
  let inst_ms = best (List.map snd pairs) *. 1000. in
  let overhead_pct = if base_ms > 0. then ((inst_ms /. base_ms) -. 1.) *. 100. else 0. in
  let pass = overhead_pct < 3.0 in
  let oc = open_out "BENCH_F14.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"telemetry_overhead\",\n  \"scheme\": \"interval\",\n\
    \  \"scale\": %g,\n  \"repeat\": %d,\n  \"sampling\": 0.01,\n\
    \  \"base_ms\": %.2f,\n  \"instrumented_ms\": %.2f,\n\
    \  \"overhead_pct\": %.2f,\n  \"target_pct\": 3.0,\n  \"pass\": %b\n}\n"
    scale repeat base_ms inst_ms overhead_pct pass;
  close_out oc;
  if not pass then
    Printf.eprintf "F14: telemetry overhead %.2f%% exceeds the 3%% target\n" overhead_pct;
  Tables.print
    ~title:
      "F14: telemetry overhead — durable load + Q1-12, tracing off vs metrics + 1% \
       sampling (also BENCH_F14.json)"
    ~header:[ "scale"; "base ms"; "instrumented ms"; "overhead"; "target"; "verdict" ]
    [
      [
        Printf.sprintf "%.2f" scale; Printf.sprintf "%.2f" base_ms;
        Printf.sprintf "%.2f" inst_ms; Printf.sprintf "%.2f%%" overhead_pct; "<3%";
        (if pass then "ok" else "OVER");
      ];
    ]

(* F15: domain-parallel query throughput — Q1-12 through the snapshot
   pool on 1/2/4/8 reader domains while a writer keeps committing loads,
   against the single-domain pool as baseline. Per-domain work is fixed,
   so perfect scaling keeps the wall clock flat and multiplies
   queries/sec by the domain count. Readers verify every answer
   byte-for-byte against the direct store as they go: a load landing
   mid-run must never perturb a committed document's answers. The
   speedup target is honest about hardware — 2.5x when the host grants
   >= 4 cores, 1.0x (parallel overhead must not lose throughput) on 2-3
   cores, correctness-only on a single core where every stop-the-world
   minor collection pays a scheduler round-trip per extra domain — and
   BENCH_F15.json records host_cores so a reader can tell the regimes
   apart. BENCH_F15_SCALE, BENCH_F15_REPEAT, BENCH_F15_SWEEPS,
   BENCH_F15_DOMAINS ("1 2 4 8"), BENCH_F15_WRITES and BENCH_F15_TARGET
   override the defaults. *)

let f15 () =
  let scale =
    match Sys.getenv_opt "BENCH_F15_SCALE" with
    | Some s -> (try float_of_string s with _ -> 0.1)
    | None -> 0.1
  in
  let repeat =
    match Sys.getenv_opt "BENCH_F15_REPEAT" with
    | Some s -> (try int_of_string s with _ -> 3)
    | None -> 3
  in
  let writes =
    match Sys.getenv_opt "BENCH_F15_WRITES" with
    | Some s -> (try int_of_string s with _ -> 3)
    | None -> 3
  in
  let domain_counts =
    let src = Option.value (Sys.getenv_opt "BENCH_F15_DOMAINS") ~default:"1 2 4 8" in
    let parsed = List.filter_map int_of_string_opt (String.split_on_char ' ' src) in
    let parsed = List.filter (fun d -> d >= 1) parsed in
    if List.mem 1 parsed && List.length parsed > 1 then parsed else 1 :: parsed
  in
  let host_cores = Domain.recommended_domain_count () in
  (* stepped by hardware: >= 4 cores must deliver the 2.5x tentpole
     target; 2-3 cores must at least not lose throughput; a single core
     offers no parallelism at all and even pays a scheduler round-trip
     per stop-the-world minor collection, so there the experiment
     degenerates to a correctness gate (answers_equal) and the measured
     speedup is informational *)
  let target =
    match Sys.getenv_opt "BENCH_F15_TARGET" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> if host_cores >= 4 then 2.5 else if host_cores >= 2 then 1.0 else 0.0
  in
  let sweeps =
    match Sys.getenv_opt "BENCH_F15_SWEEPS" with
    | Some s -> (try int_of_string s with _ -> 20)
    | None -> 20
  in
  let dom = auction ~scale ~seed:42 in
  let tiny =
    Xmlkit.Parser.parse
      "<site><people><person id=\"pw\"><name>Mid Run Load</name></person></people></site>"
  in
  let queries = Xmlwork.Queries.auction_queries in
  let direct = loaded_store "edge" dom in
  let reference =
    List.map (fun q -> (q.Xmlwork.Queries.qid, Store.query_values direct 0 q.Xmlwork.Queries.xpath)) queries
  in
  (* one measured run: d reader domains sweep Q1-12 [sweeps] times each
     against pool replicas while the main domain commits [writes] loads;
     returns (elapsed seconds, every answer matched the direct store) *)
  let run d =
    let primary = loaded_store "edge" dom in
    let pool = Storepool.Pool.create ~readers:d primary in
    (* pre-warm the replica cache: the d initial builds are setup cost,
       not steady-state query throughput (rebuilds triggered by the
       mid-run writes stay inside the measured window) *)
    let warm = List.init d (fun _ -> Storepool.Pool.acquire pool) in
    List.iter (Storepool.Pool.release pool) warm;
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let readers =
      List.init d (fun _ ->
          Domain.spawn (fun () ->
              let ok = ref true in
              for _ = 1 to sweeps do
                List.iter
                  (fun (qid, expect) ->
                    let xpath =
                      (List.find (fun q -> q.Xmlwork.Queries.qid = qid) queries).Xmlwork.Queries.xpath
                    in
                    let got = (fst (Storepool.Pool.query pool 0 xpath)).Store.values in
                    if got <> expect then ok := false)
                  reference
              done;
              !ok))
    in
    for _ = 1 to writes do
      ignore (Storepool.Pool.apply pool (fun s -> Store.add_document s tiny));
      Unix.sleepf 0.002
    done;
    let oks = List.map Domain.join readers in
    let elapsed = Unix.gettimeofday () -. t0 in
    (elapsed, List.for_all Fun.id oks)
  in
  ignore (run 1);
  (* warm caches *)
  let entries = ref [] in
  let base_qps = ref 0. in
  let rows =
    List.map
      (fun d ->
        let runs = List.init repeat (fun _ -> run d) in
        (* noise only adds time: the fastest repeat is the honest cost *)
        let elapsed = List.fold_left (fun acc (t, _) -> min acc t) infinity runs in
        let equal = List.for_all snd runs in
        let nqueries = d * sweeps * List.length queries in
        let qps = float_of_int nqueries /. elapsed in
        if d = 1 then base_qps := qps;
        let speedup = if !base_qps > 0. then qps /. !base_qps else 0. in
        entries :=
          Printf.sprintf
            "    {\"domains\": %d, \"queries\": %d, \"elapsed_ms\": %.2f, \"qps\": %.0f, \
             \"speedup\": %.2f, \"answers_equal\": %b}"
            d nqueries (elapsed *. 1000.) qps speedup equal
          :: !entries;
        ( d, speedup, equal,
          [
            string_of_int d; string_of_int nqueries; Tables.ms elapsed;
            Printf.sprintf "%.0f" qps; Printf.sprintf "%.2fx" speedup;
            (if equal then "ok" else "DIFFER");
          ] ))
      domain_counts
  in
  let best_parallel =
    List.fold_left (fun acc (d, s, _, _) -> if d > 1 then max acc s else acc) 0. rows
  in
  let best_parallel = if List.length rows = 1 then 1.0 else best_parallel in
  let all_equal = List.for_all (fun (_, _, e, _) -> e) rows in
  let pass = best_parallel >= target && all_equal in
  let oc = open_out "BENCH_F15.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"parallel_query\",\n  \"scheme\": \"edge\",\n  \"scale\": %g,\n\
    \  \"repeat\": %d,\n  \"sweeps\": %d,\n  \"writes\": %d,\n  \"host_cores\": %d,\n\
    \  \"target_speedup\": %.2f,\n  \"best_parallel_speedup\": %.2f,\n\
    \  \"answers_equal\": %b,\n  \"pass\": %b,\n  \"entries\": [\n%s\n  ]\n}\n"
    scale repeat sweeps writes host_cores target best_parallel all_equal pass
    (String.concat ",\n" (List.rev !entries));
  close_out oc;
  if not all_equal then
    Printf.eprintf "F15: parallel answers DIFFER from the direct store\n";
  if not pass then
    Printf.eprintf
      "F15: best parallel speedup %.2fx under the %.2fx target (host grants %d cores)\n"
      best_parallel target host_cores;
  Tables.print
    ~title:
      (Printf.sprintf
         "F15: domain-parallel Q1-12 under a live writer — queries/sec vs reader domains \
          (edge scheme, host_cores=%d, target %.1fx, also BENCH_F15.json)"
         host_cores target)
    ~header:[ "domains"; "queries"; "elapsed"; "qps"; "speedup"; "Q1-12" ]
    (List.map (fun (_, _, _, r) -> r) rows)

(* ------------------------------------------------------------------ *)
(* F4: micro-benchmarks via Bechamel — one Test.make per component *)

let f4 () =
  let open Bechamel in
  let open Toolkit in
  let doc_src = Xmlkit.Serializer.to_string (auction ~scale:0.05 ~seed:42) in
  let dom = Xmlkit.Parser.parse doc_src in
  let ix = Index.of_document dom in
  let store = loaded_store "interval" dom in
  let tests =
    [
      Test.make ~name:"xml-parse" (Staged.stage (fun () -> Xmlkit.Parser.parse doc_src));
      Test.make ~name:"xml-serialize" (Staged.stage (fun () -> Xmlkit.Serializer.to_string dom));
      Test.make ~name:"index-build" (Staged.stage (fun () -> Index.of_document dom));
      Test.make ~name:"xpath-parse"
        (Staged.stage (fun () -> Xpathkit.Parser.parse "/site/people/person[@id='p1']/name"));
      Test.make ~name:"xpath-native-q5" (Staged.stage (fun () -> Xpathkit.Eval.select_strings ix "//keyword"));
      Test.make ~name:"sql-parse"
        (Staged.stage (fun () ->
             Relstore.Sql_parser.parse_statement
               "SELECT a.x, count(*) FROM t a, u b WHERE a.k = b.k GROUP BY a.x ORDER BY a.x"));
      Test.make ~name:"interval-q1"
        (Staged.stage (fun () -> Store.query store 0 "/site/regions/europe/item/name"));
      Test.make ~name:"btree-insert-1k"
        (Staged.stage (fun () ->
             let t = Relstore.Btree.create () in
             for i = 0 to 999 do
               Relstore.Btree.insert t [| Relstore.Value.Int (i * 37 mod 1000) |] i
             done));
    ]
  in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.1f" (e /. 1000.0)
        | _ -> "n/a"
      in
      rows := [ name; estimate ] :: !rows)
    results;
  Tables.print ~title:"F4: micro-benchmarks (Bechamel, OLS estimate)"
    ~header:[ "benchmark"; "us/op" ]
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("T1", t1); ("T2", t2); ("F1", f1); ("F2", f2); ("T3", t3); ("F3", f3);
    ("T4", t4); ("T5", t5); ("T6", t6); ("T7", t7); ("F5", f5); ("F6", f6); ("F7", f7);
    ("F8", f8); ("F9", f9); ("F10", f10); ("F11", f11); ("F12", f12); ("F13", f13); ("F14", f14); ("F15", f15); ("F4", f4);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  print_endline "XML storage & retrieval benchmark suite";
  print_endline "(see DESIGN.md for the experiment index, EXPERIMENTS.md for analysis)";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "[%s completed in %.1fs]\n" name (Unix.gettimeofday () -. t0)
      | None ->
        Printf.eprintf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    requested
