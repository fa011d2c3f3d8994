(* Command-line interface to the XML store.

     xmlstore schemes
     xmlstore query -s interval doc.xml "/site//item/name" [--show-sql]
     xmlstore shred -s edge doc.xml [--dump]
     xmlstore roundtrip -s dewey doc.xml
     xmlstore validate doc.xml            (DTD from the internal subset)
     xmlstore generate auction --scale 0.5 > doc.xml *)

open Cmdliner
module Store = Xmlstore.Store
module Db = Relstore.Database

let read_store ?dtd_file scheme path =
  let parsed =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Xmlkit.Parser.parse_full s
  in
  let dtd =
    match dtd_file with
    | Some f ->
      let ic = open_in_bin f in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some (Xmlkit.Dtd.parse s)
    | None -> Option.map (fun s -> Xmlkit.Dtd.parse s) parsed.Xmlkit.Parser.internal_subset
  in
  let store =
    match dtd with
    | Some d -> Store.create ~dtd:d scheme
    | None -> Store.create scheme
  in
  let doc = Store.add_document ~name:path store parsed.Xmlkit.Parser.document in
  (store, doc, parsed.Xmlkit.Parser.document)

(* common options *)
let scheme_arg =
  let doc = "Mapping scheme: " ^ String.concat ", " (Store.schemes ()) ^ "." in
  Arg.(value & opt string "edge" & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML document.")

let dtd_arg =
  Arg.(value & opt (some file) None & info [ "dtd" ] ~docv:"DTD" ~doc:"External DTD file (needed by the inline scheme if the document has no internal subset).")

(* schemes *)
let schemes_cmd =
  let run () =
    List.iter
      (fun id ->
        let descr =
          match Xmlshred.Registry.find id with
          | Some m ->
            let module M = (val m : Xmlshred.Mapping.MAPPING) in
            M.description
          | None -> "DTD-driven shared inlining (Shanmugasundaram et al.)"
        in
        Printf.printf "%-10s %s\n" id descr)
      (Store.schemes ())
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List available mapping schemes.") Term.(const run $ const ())

(* query *)
let query_cmd =
  let xpath_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH" ~doc:"Absolute XPath.")
  in
  let show_sql = Arg.(value & flag & info [ "show-sql" ] ~doc:"Print the SQL executed.") in
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Instrument the execution and print each statement's operator tree with actual \
                   rows and timings (EXPLAIN ANALYZE).")
  in
  let as_xml = Arg.(value & flag & info [ "xml" ] ~doc:"Print result subtrees as XML.") in
  let repeat_arg =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Run the query N times; repeats reuse cached plans (see --show-sql).")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record a full trace of the run (parse, shred, translate, plan, execute) and \
                   print the span tree on stderr.")
  in
  let run scheme dtd_file path xpath show_sql analyze as_xml repeat trace =
    if trace then Obskit.Trace.set_sampling Obskit.Trace.Always;
    let store, doc, _ = read_store ?dtd_file scheme path in
    Store.reset_cache_stats store;
    let r = ref (Store.query ~analyze store doc xpath) in
    for _ = 2 to repeat do
      r := Store.query ~analyze store doc xpath
    done;
    if trace then prerr_string (Obskit.Export.pretty (Obskit.Trace.spans ()));
    let r = !r in
    if show_sql then begin
      Printf.eprintf "-- %d SQL statement(s), %d join(s)%s\n" (List.length r.Store.sql)
        r.Store.joins
        (if r.Store.fallback then " [fallback: evaluated natively]" else "");
      List.iter (Printf.eprintf "-- %s\n") r.Store.sql;
      let hits, misses, invalidations, evictions = Store.cache_stats store in
      Printf.eprintf "-- plan cache: %d hit(s), %d miss(es), %d invalidation(s), %d eviction(s)\n"
        hits misses invalidations evictions
    end;
    if analyze then begin
      if r.Store.analyzed = [] then
        Printf.eprintf
          "-- analyze: no translated SQL executed%s\n"
          (if r.Store.fallback then " (fallback: evaluated natively)" else "");
      List.iter
        (fun (sql, annot) ->
          Printf.eprintf "-- %s\n%s\n" sql (Relstore.Plan.annotated_to_string annot))
        r.Store.analyzed;
      Printf.eprintf "-- gc: %d minor byte(s) allocated, %d major byte(s) promoted/allocated\n"
        r.Store.gc_minor_bytes r.Store.gc_major_bytes
    end;
    if as_xml then
      List.iter
        (fun n -> print_endline (Xmlkit.Serializer.node_to_string n))
        (Lazy.force r.Store.nodes)
    else List.iter print_endline r.Store.values
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Shred a document and run an XPath query against the relational form.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ xpath_arg $ show_sql $ analyze $ as_xml
          $ repeat_arg $ trace_flag)

(* shred *)
let shred_cmd =
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Dump every table's contents.") in
  let run scheme dtd_file path dump =
    let store, _, _ = read_store ?dtd_file scheme path in
    let stats = Store.stats store in
    Printf.printf "scheme:  %s\ntables:  %d\ntuples:  %d\nbytes:   %d\nindexes: %d entries\n"
      stats.Store.scheme_id
      (List.length stats.Store.tables)
      stats.Store.total_rows stats.Store.total_bytes stats.Store.total_index_entries;
    List.iter
      (fun t ->
        Printf.printf "  %-24s %6d rows %8d bytes\n" t.Db.st_table t.Db.st_rows t.Db.st_bytes)
      stats.Store.tables;
    if dump then
      List.iter
        (fun t ->
          if not (String.equal t.Db.st_table "documents") then begin
            Printf.printf "\n-- %s\n" t.Db.st_table;
            print_endline
              (Db.render_result
                 (Db.query (Store.database store)
                    (Printf.sprintf "SELECT * FROM %s" t.Db.st_table)))
          end)
        stats.Store.tables
  in
  Cmd.v
    (Cmd.info "shred" ~doc:"Shred a document and report (or dump) the relational storage.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ dump)

(* load: timed document loading through a bulk session *)
let durable_arg =
  Arg.(value & opt (some string) None
       & info [ "durable" ] ~docv:"DIR"
           ~doc:"Root the store in a durable directory (paged checkpoints + write-ahead log) \
                 instead of memory.")

let crash_arg =
  let points = String.concat ", " (List.map fst Relstore.Failpoint.points) in
  Arg.(value & opt (some string) None
       & info [ "crash-at" ] ~docv:"POINT"
           ~doc:(Printf.sprintf
                   "Inject a crash at a failpoint (%s) and exit, leaving the directory exactly \
                    as a real crash would; reopen it with recover."
                   points))

let load_cmd =
  let run scheme dtd_file path durable crash_at =
    let parsed =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Xmlkit.Parser.parse_full s
    in
    let dtd =
      match dtd_file with
      | Some f ->
        let ic = open_in_bin f in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Some (Xmlkit.Dtd.parse s)
      | None -> Option.map (fun s -> Xmlkit.Dtd.parse s) parsed.Xmlkit.Parser.internal_subset
    in
    let store =
      match dtd with
      | Some d -> Store.create ~dtd:d ?durable scheme
      | None -> Store.create ?durable scheme
    in
    Relstore.Failpoint.arm crash_at;
    (try
       let t0 = Obskit.Clock.now_ns () in
       ignore (Store.add_document ~name:path store parsed.Xmlkit.Parser.document);
       Store.close store;
       let ms = float_of_int (Obskit.Clock.now_ns () - t0) /. 1e6 in
       let stats = Store.stats store in
       Printf.printf "scheme:        %s\nrows:          %d\nindex entries: %d\n"
         stats.Store.scheme_id stats.Store.total_rows stats.Store.total_index_entries;
       (match durable with Some dir -> Printf.printf "directory:     %s\n" dir | None -> ());
       Printf.printf "load time:     %.2f ms\nrows/sec:      %.0f\n" ms
         (float_of_int stats.Store.total_rows /. (ms /. 1000.))
     with Relstore.Failpoint.Injected_crash point ->
       (* drop the handles without flushing anything, as a real crash would *)
       Db.abandon (Store.database store);
       Printf.printf "injected crash at %s\n" point)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Shred a document into a store and report load throughput. The load appends all \
             rows first and builds each B+-tree bottom-up from one sort. With --durable DIR \
             the store lives on disk and the load commits through the write-ahead log; \
             --crash-at simulates a crash part-way for recovery testing.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ durable_arg $ crash_arg)

(* checkpoint / recover: operate on a durable store directory *)
let dir_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DIR" ~doc:"Durable store directory.")

let recovery_report store =
  match Store.last_recovery store with
  | None -> ()
  | Some (r : Db.recovery) ->
    Printf.printf
      "recovery: %d record(s) scanned, %d redone, %d row(s) undone, %d loser transaction(s), \
       %d torn byte(s) cut\n"
      r.Db.rc_scanned r.Db.rc_redone r.Db.rc_undone r.Db.rc_losers r.Db.rc_torn_bytes

let checkpoint_cmd =
  let run dir =
    let store = Store.open_durable dir in
    recovery_report store;
    Store.checkpoint store;
    Printf.printf "checkpointed %s: %d document(s), %d row(s)\n" dir
      (List.length (Store.documents store))
      (Store.stats store).Store.total_rows;
    Store.close store
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Open a durable store (recovering if needed), write a fresh page checkpoint, and \
             truncate its write-ahead log.")
    Term.(const run $ dir_arg)

let recover_cmd =
  let run dir =
    let store = Store.open_durable dir in
    recovery_report store;
    Printf.printf "%s: scheme %s, %d document(s)\n" dir (Store.scheme store)
      (List.length (Store.documents store));
    List.iter
      (fun (d : Store.doc_info) ->
        Printf.printf "  doc %d: <%s>, %d node(s), depth %d%s\n" d.Store.doc d.Store.root_tag
          d.Store.nodes d.Store.depth
          (match d.Store.doc_name with Some n -> " — " ^ n | None -> ""))
      (Store.documents store);
    Store.close store
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Open a durable store directory, run crash recovery, report what the replay did, \
             and leave a clean checkpoint behind.")
    Term.(const run $ dir_arg)

(* stats: storage statistics plus the metrics registry *)
let stats_cmd =
  let metrics_flag =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Dump the metrics registry (parse/plan/execute latencies, cache hit-miss, \
                   shred and query timings per scheme).")
  in
  let xpath_opt =
    Arg.(value & opt (some string) None
         & info [ "query" ] ~docv:"XPATH" ~doc:"Run this XPath first so query metrics are populated.")
  in
  let prometheus_flag =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Print the metrics registry as Prometheus text exposition instead of the \
                   storage report. The output is linted before printing.")
  in
  let tables_flag =
    Arg.(value & flag
         & info [ "tables" ]
             ~doc:"Dump per-table column statistics (row counts, distincts, null counts, \
                   min/max, equi-width histograms) — the numbers behind the planner's \
                   cardinality estimates.")
  in
  let run scheme dtd_file path metrics prometheus tables xpath =
    Relstore.Metrics.reset ();
    let store, doc, _ = read_store ?dtd_file scheme path in
    (match xpath with Some x -> ignore (Store.query store doc x) | None -> ());
    if prometheus then begin
      let exposition = Relstore.Metrics.prometheus () in
      (match Obskit.Prom.lint exposition with
      | Ok () -> ()
      | Error problems ->
        List.iter (Printf.eprintf "prometheus lint: %s\n") problems;
        exit 1);
      print_string exposition
    end
    else begin
      let stats = Store.stats store in
      Printf.printf "scheme:  %s\ntables:  %d\ntuples:  %d\nbytes:   %d\nindexes: %d entries\n"
        stats.Store.scheme_id
        (List.length stats.Store.tables)
        stats.Store.total_rows stats.Store.total_bytes stats.Store.total_index_entries;
      let hits, misses, invalidations, evictions = Store.cache_stats store in
      Printf.printf "plan cache: %d hit(s), %d miss(es), %d invalidation(s), %d eviction(s)\n" hits
        misses invalidations evictions;
      if tables then begin
        let db = Store.database store in
        List.iter
          (fun (ts : Relstore.Database.table_stats) ->
            print_newline ();
            print_string (Relstore.Database.analyze_to_string db ts.Relstore.Database.st_table))
          stats.Store.tables
      end;
      if metrics then begin
        print_newline ();
        (* only this store's series, under their bare names *)
        print_string (Relstore.Metrics.report ~label:(Store.metrics_label store) ())
      end
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Shred a document and report storage statistics; --metrics dumps the metrics \
             registry, --prometheus prints it as text exposition, --tables dumps per-table \
             column statistics and histograms.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ metrics_flag $ prometheus_flag
          $ tables_flag $ xpath_opt)

(* roundtrip *)
let roundtrip_cmd =
  let run scheme dtd_file path =
    let store, doc, original = read_store ?dtd_file scheme path in
    let back = Store.get_document store doc in
    if Xmlkit.Dom.equal original back then begin
      print_endline "round-trip: identical";
      exit 0
    end
    else begin
      print_endline "round-trip: DIFFERENT";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "roundtrip" ~doc:"Shred, reconstruct, and compare with the original.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg)

(* validate *)
let validate_cmd =
  let run dtd_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    let parsed = Xmlkit.Parser.parse_full s in
    let dtd =
      match dtd_file with
      | Some f ->
        let ic = open_in_bin f in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Some (Xmlkit.Dtd.parse s)
      | None -> Option.map (fun s -> Xmlkit.Dtd.parse s) parsed.Xmlkit.Parser.internal_subset
    in
    match dtd with
    | None ->
      prerr_endline "no DTD: document has no internal subset and --dtd was not given";
      exit 2
    | Some dtd -> (
      match Xmlkit.Dtd.validate dtd parsed.Xmlkit.Parser.document with
      | [] ->
        print_endline "valid";
        exit 0
      | violations ->
        List.iter (fun v -> print_endline (Xmlkit.Dtd.violation_to_string v)) violations;
        exit 1)
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a document against its DTD.")
    Term.(const run $ dtd_arg $ file_arg)

(* generate *)
let generate_cmd =
  let kind_arg =
    Arg.(required & pos 0 (some (enum [ ("auction", `Auction); ("bibliography", `Bib); ("parts", `Parts) ])) None
         & info [] ~docv:"KIND" ~doc:"Workload: auction, bibliography, or parts.")
  in
  let scale = Arg.(value & opt float 0.1 & info [ "scale" ] ~doc:"Auction scale factor.") in
  let entries = Arg.(value & opt int 100 & info [ "entries" ] ~doc:"Bibliography entry count.") in
  let depth = Arg.(value & opt int 6 & info [ "depth" ] ~doc:"Parts hierarchy depth.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let dtd_only =
    Arg.(value & flag
         & info [ "dtd" ]
             ~doc:"Print the workload's DTD instead of a document (auction only).")
  in
  let run kind scale entries depth seed dtd_only =
    if dtd_only then begin
      match kind with
      | `Auction -> print_string Xmlwork.Auction.dtd_source
      | `Bib | `Parts ->
        prerr_endline "only the auction workload has a DTD";
        exit 2
    end
    else
      let dom =
        match kind with
        | `Auction -> Xmlwork.Auction.generate ~params:{ Xmlwork.Auction.default with scale; seed } ()
        | `Bib -> Xmlwork.Bibliography.generate ~params:{ Xmlwork.Bibliography.seed; entries } ()
        | `Parts -> Xmlwork.Deep.generate ~params:{ Xmlwork.Deep.default with seed; depth } ()
      in
      print_string (Xmlkit.Serializer.pretty dom)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic workload document (or its DTD) on stdout.")
    Term.(const run $ kind_arg $ scale $ entries $ depth $ seed $ dtd_only)

(* sql: open a store and run raw SQL against it *)
let sql_cmd =
  let stmt_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SQL" ~doc:"SQL statement.")
  in
  let run scheme dtd_file path stmt =
    let store, _, _ = read_store ?dtd_file scheme path in
    match Store.sql store stmt with
    | Db.Rows r -> print_endline (Db.render_result r)
    | Db.Affected n -> Printf.printf "%d row(s) affected\n" n
    | Db.Done msg -> print_endline msg
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Shred a document and run raw SQL against its relational form.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ stmt_arg)

(* save: shred to a persistent SQL dump *)
let save_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Dump file.")
  in
  let run scheme dtd_file path out =
    let store, _, _ = read_store ?dtd_file scheme path in
    Store.save store out;
    Printf.printf "saved %s under scheme %s to %s\n" path scheme out
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Shred a document and persist the store as a SQL dump.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ out_arg)

(* query-saved: reopen a dump and query it *)
let query_saved_cmd =
  let dump_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP" ~doc:"Store dump produced by save.")
  in
  let xpath_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH" ~doc:"Absolute XPath.")
  in
  let doc_arg =
    Arg.(value & opt int 0 & info [ "doc" ] ~docv:"ID" ~doc:"Document id inside the store.")
  in
  let durable_flag =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:"DUMP is a durable store directory (recovered as needed), not a SQL dump; \
                   the scheme is read from the directory.")
  in
  let run scheme dtd_file dump xpath doc_id durable =
    let dtd =
      Option.map
        (fun f ->
          let ic = open_in_bin f in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          Xmlkit.Dtd.parse s)
        dtd_file
    in
    let store =
      if durable then Store.open_durable ?dtd dump else Store.load ?dtd ~scheme dump
    in
    List.iter print_endline (Store.query_values store doc_id xpath);
    Store.close store
  in
  Cmd.v
    (Cmd.info "query-saved"
       ~doc:"Reopen a persisted store (SQL dump, or durable directory with --durable) and run \
             an XPath query.")
    Term.(const run $ scheme_arg $ dtd_arg $ dump_arg $ xpath_arg $ doc_arg $ durable_flag)

(* trace: record a full instrumented run and export / validate traces *)
let trace_export_cmd =
  let xpath_arg =
    Arg.(value & opt string "/*" & info [ "query" ] ~docv:"XPATH" ~doc:"XPath to run traced.")
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"OUT" ~doc:"Output file (Chrome trace_event JSON).")
  in
  let durable_trace_arg =
    Arg.(value & opt (some string) None
         & info [ "durable" ] ~docv:"DIR"
             ~doc:"Trace opening this durable store directory instead of shredding FILE: the \
                   export shows the recovery span tree (image load, redo, undo) and the \
                   checkpoint phases, then the traced query. FILE is ignored.")
  in
  let run scheme dtd_file path xpath out durable_dir =
    Obskit.Trace.set_sampling Obskit.Trace.Always;
    let store, doc =
      match durable_dir with
      | Some dir ->
        let store = Store.open_durable dir in
        (store, 0)
      | None ->
        let store, doc, _ = read_store ?dtd_file scheme path in
        (store, doc)
    in
    ignore (Store.query store doc xpath);
    ignore (Store.get_document store doc);
    let spans = Obskit.Trace.spans () in
    (match Obskit.Export.check_well_nested spans with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "trace is not well nested: %s\n" e;
      exit 1);
    let json = Obskit.Export.to_chrome_json spans in
    let oc = open_out_bin out in
    output_string oc json;
    close_out oc;
    Printf.printf "wrote %d span(s) across %d trace(s) to %s\n" (List.length spans)
      (List.length (List.sort_uniq compare (List.map (fun s -> s.Obskit.Trace.trace_id) spans)))
      out
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Shred, query, and reconstruct a document fully traced (or, with --durable, open a \
             durable store traced through recovery); write the spans as Chrome trace_event \
             JSON (chrome://tracing, Perfetto).")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ xpath_arg $ out_arg $ durable_trace_arg)

let trace_validate_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"Trace file produced by trace export.")
  in
  let run path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obskit.Export.validate_chrome_json s with
    | Ok n ->
      Printf.printf "%s: %d event(s), well nested\n" path n;
      exit 0
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Parse an exported trace and check per-thread event nesting.")
    Term.(const run $ trace_file_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Record, export, and validate execution traces.")
    [ trace_export_cmd; trace_validate_cmd ]

(* slowlog: arm the slow-query log, run a query, report what it caught *)
let slowlog_cmd =
  let xpath_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH" ~doc:"Absolute XPath.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.0
         & info [ "threshold-ms" ] ~docv:"MS"
             ~doc:"Retain queries taking at least this many milliseconds (default 0: every \
                   query).")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc:"Run the query N times.")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Retain at most N entries (default 32), evicting the oldest.")
  in
  let params_to_string ps =
    if Array.length ps = 0 then "(none)"
    else String.concat ", " (Array.to_list (Array.map Relstore.Value.to_string ps))
  in
  let run scheme dtd_file path xpath threshold repeat limit =
    let store, doc, _ = read_store ?dtd_file scheme path in
    Store.set_slow_threshold store (Some threshold);
    (match limit with Some n -> Store.set_slow_log_capacity store n | None -> ());
    for _ = 1 to repeat do
      ignore (Store.query store doc xpath)
    done;
    let entries = Store.slow_log store in
    Printf.printf "%d slow quer%s (threshold %.3f ms, %d run%s, capacity %d)\n"
      (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      threshold repeat
      (if repeat = 1 then "" else "s")
      (Store.slow_log_capacity store);
    List.iter
      (fun (e : Store.slow_entry) ->
        Printf.printf "\n%.3f ms  doc=%d scheme=%s%s  %s\n"
          (float_of_int e.Store.se_total_ns /. 1e6)
          e.Store.se_doc e.Store.se_scheme
          (if e.Store.se_fallback then " [fallback]" else "")
          e.Store.se_xpath;
        Printf.printf "  gc:     %d minor byte(s), %d major byte(s)\n" e.Store.se_minor_bytes
          e.Store.se_major_bytes;
        List.iter
          (fun (s : Store.slow_statement) ->
            Printf.printf "  sql:    %s\n  params: %s\n  plan:\n%s\n  analyze:\n%s\n"
              s.Store.ss_sql
              (params_to_string s.Store.ss_params)
              (String.concat "\n"
                 (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' s.Store.ss_plan)))
              (String.concat "\n"
                 (List.map
                    (fun l -> "    " ^ l)
                    (String.split_on_char '\n'
                       (Relstore.Plan.annotated_to_string s.Store.ss_annot)))))
          e.Store.se_statements)
      entries
  in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:"Run a query with the slow-query log armed and print every retained entry \
             (statement text, bound parameters, plan, executed operator tree, GC bytes).")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ xpath_arg $ threshold_arg $ repeat_arg
          $ limit_arg)

(* lint: static analysis over the SQL, plans, and XPath a query produces *)
let lint_cmd =
  let xpaths_arg =
    Arg.(value & pos_right 0 string []
         & info [] ~docv:"XPATH" ~doc:"Absolute XPath(s) to lint (omit with --workload).")
  in
  let workload_flag =
    Arg.(value & flag
         & info [ "workload" ]
             ~doc:"Lint the built-in auction benchmark workload Q1-Q12 (in addition to any \
                   XPATH arguments).")
  in
  let all_schemes_flag =
    Arg.(value & flag
         & info [ "all-schemes" ]
             ~doc:"Lint under every available scheme instead of just --scheme (schemes that \
                   cannot open the document, e.g. inline without a DTD, are skipped with a \
                   note).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the reports as one JSON document.")
  in
  let strict_flag =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit nonzero when any query produced a warning-or-worse diagnostic.")
  in
  let no_schema_flag =
    Arg.(value & flag
         & info [ "no-schema-check" ]
             ~doc:"Skip the XPath-vs-DataGuide pass (SQL and plan lints only).")
  in
  let run scheme dtd_file path xpaths workload all_schemes json strict no_schema =
    let xpaths =
      (if workload then
         List.map (fun q -> q.Xmlwork.Queries.xpath) Xmlwork.Queries.auction_queries
       else [])
      @ xpaths
    in
    if xpaths = [] then begin
      prerr_endline "nothing to lint: give XPATH arguments or --workload";
      exit 2
    end;
    let schemes = if all_schemes then Store.schemes () else [ scheme ] in
    let reports =
      List.concat_map
        (fun sch ->
          match read_store ?dtd_file sch path with
          | store, doc, _ ->
            Store.lint_workload ~schema_check:(not no_schema) store doc xpaths
          | exception Store.Store_error msg ->
            Printf.eprintf "-- skipping scheme %s: %s\n" sch msg;
            [])
        schemes
    in
    let failing = Lintkit.Lint.reports_failing reports in
    if json then begin
      let text = Obskit.Json.to_string (Lintkit.Lint.reports_to_json reports) in
      (* the printed document must survive a parse round-trip *)
      match Obskit.Json.parse text with
      | Ok _ -> print_endline text
      | Error e ->
        Printf.eprintf "internal error: emitted JSON does not parse: %s\n" e;
        exit 3
    end
    else begin
      if reports <> [] then print_endline (Lintkit.Lint.reports_to_string reports);
      Printf.printf "%d quer%s linted across %d scheme%s, %d failing\n" (List.length reports)
        (if List.length reports = 1 then "y" else "ies")
        (List.length schemes)
        (if List.length schemes = 1 then "" else "s")
        (List.length failing)
    end;
    if strict && failing <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Shred a document, run each query through the scheme, and statically analyze the \
             generated SQL, the physical plans, and the XPath against the document's \
             DataGuide.")
    Term.(const run $ scheme_arg $ dtd_arg $ file_arg $ xpaths_arg $ workload_flag
          $ all_schemes_flag $ json_flag $ strict_flag $ no_schema_flag)

(* transform: FLWOR over a document *)
let transform_cmd =
  let flwor_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FLWOR"
         ~doc:"for \\$v in PATH [where COND] [order by KEY [descending]] return TEMPLATE")
  in
  let run path flwor =
    let dom = Xmlkit.Parser.parse_file path in
    let ix = Xmlkit.Index.of_document dom in
    print_endline (Xpathkit.Flwor.run_to_string ix flwor)
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Run a FLWOR transformation over a document.")
    Term.(const run $ file_arg $ flwor_arg)

(* serve: the embedded observability HTTP endpoint *)
let serve_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
             ~doc:"XML document to shred and serve (or, with --durable, a durable store \
                   directory to reopen).")
  in
  let port_arg =
    Arg.(value & opt int 0
         & info [ "port" ] ~docv:"PORT" ~doc:"Port to listen on (default 0: ephemeral).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let durable_flag =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:"PATH is a durable store directory (recovered as needed), not an XML file.")
  in
  let warm_arg =
    Arg.(value & opt (some string) None
         & info [ "query" ] ~docv:"XPATH"
             ~doc:"Run this XPath once before serving, so /metrics and /traces show a real \
                   query.")
  in
  let readers_arg =
    Arg.(value & opt int 4
         & info [ "readers" ] ~docv:"N"
             ~doc:"Serve the data plane (POST /query, POST /load) from a store pool with N \
                   reader permits, on N serving domains (at least 1).")
  in
  let run scheme dtd_file path port host durable warm readers =
    if readers < 1 then failwith "--readers must be >= 1";
    (* keep the ring buffer populated for /traces without paying for
       always-on tracing: sample every trace while serving *)
    Obskit.Trace.set_sampling Obskit.Trace.Always;
    let store, doc =
      if durable then (Store.open_durable path, 0)
      else
        let store, doc, _ = read_store ?dtd_file scheme path in
        (store, doc)
    in
    Store.set_slow_threshold store (Some 0.0);
    (match warm with Some x -> ignore (Store.query store doc x) | None -> ());
    let pool = Storepool.Pool.create ~readers store in
    let server = Storepool.Service.serve ~host ~port pool in
    Printf.printf "serving %s on http://%s:%d with %d reader domain(s) (endpoints: POST \
                   /query /load; GET /pool /metrics /healthz /slowlog /traces /stats)\n%!"
      path host (Servekit.Server.port server) readers;
    Servekit.Server.run_parallel ~domains:readers server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the store's HTTP endpoints — the pooled data plane (POST /query, POST \
             /load; see --readers) plus observability (/metrics, /healthz, /slowlog, /traces, \
             /stats) — until interrupted.")
    Term.(const run $ scheme_arg $ dtd_arg $ path_arg $ port_arg $ host_arg $ durable_flag
          $ warm_arg $ readers_arg)

let main =
  Cmd.group
    (Cmd.info "xmlstore" ~version:"1.0.0"
       ~doc:"Store and retrieve XML documents using a relational database.")
    [
      schemes_cmd; query_cmd; shred_cmd; load_cmd; stats_cmd; roundtrip_cmd; validate_cmd;
      generate_cmd;
      sql_cmd; save_cmd; query_saved_cmd; checkpoint_cmd; recover_cmd; transform_cmd;
      trace_cmd; slowlog_cmd; lint_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main)
