(* Unit and property tests for the observability layer: clock, metrics
   histograms, spans, exporters, slow-query log, and per-store metrics
   labels. *)

module Metrics = Relstore.Metrics
module Trace = Obskit.Trace
module Export = Obskit.Export
module Json = Obskit.Json
module Prom = Obskit.Prom
module Store = Xmlstore.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_sampling s f =
  Trace.set_sampling s;
  Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sampling Trace.Off;
      Trace.clear ())
    f

let doc_src =
  "<site><people><person id=\"p1\"><name>Ada</name></person><person id=\"p2\">\
   <name>Grace</name></person></people><regions><africa><item id=\"i1\">\
   <name>Lamp</name></item></africa></regions></site>"

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_monotonic () =
  let prev = ref (Obskit.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Obskit.Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done;
  check_bool "same source as Metrics.now_ns" true (Metrics.now_ns () >= 0)

(* ------------------------------------------------------------------ *)
(* Histogram buckets and percentiles *)

(* bucket i covers [2^i, 2^(i+1)): both endpoints of every power-of-two
   interval land in the right bucket *)
let bucket_boundaries_prop =
  QCheck.Test.make ~name:"bucket_of_ns boundary exactness" ~count:200
    QCheck.(int_range 0 61)
    (fun i ->
      Metrics.bucket_of_ns (1 lsl i) = max i 0
      && (i >= 61 || Metrics.bucket_of_ns ((1 lsl (i + 1)) - 1) = max i 0))

let percentile_monotone_prop =
  QCheck.Test.make ~name:"p50 <= p95 <= max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 10_000_000))
    (fun samples ->
      Metrics.reset ();
      List.iter (fun ns -> Metrics.observe_ns "prop.latency" ns) samples;
      match Metrics.histogram_list ~label:"" () with
      | [ (_, s) ] ->
        s.Metrics.hs_p50_ns <= s.Metrics.hs_p95_ns
        && s.Metrics.hs_p95_ns <= s.Metrics.hs_max_ns
        && s.Metrics.hs_min_ns <= s.Metrics.hs_p50_ns
      | l -> QCheck.Test.fail_reportf "expected one histogram, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Metrics labels *)

let test_metrics_labels () =
  Metrics.reset ();
  Metrics.incr "shared.count";
  Metrics.with_label "a" (fun () -> Metrics.incr ~by:3 "shared.count");
  Metrics.with_label "b" (fun () -> Metrics.incr ~by:5 "shared.count");
  check_int "default label" 1 (Metrics.counter ~label:"" "shared.count");
  check_int "label a" 3 (Metrics.counter ~label:"a" "shared.count");
  check_int "label b" 5 (Metrics.counter ~label:"b" "shared.count");
  check_bool "labels listed" true (Metrics.labels () = [ ""; "a"; "b" ]);
  (match Metrics.counter_list ~label:"a" () with
  | [ ("shared.count", 3) ] -> ()
  | l -> Alcotest.failf "unexpected label-a listing (%d entries)" (List.length l));
  (* unfiltered listing qualifies the labelled series *)
  let all = List.map fst (Metrics.counter_list ()) in
  check_bool "qualified names" true
    (List.mem "shared.count" all && List.mem "shared.count{store=\"a\"}" all);
  Metrics.reset ()

let test_gauges () =
  Metrics.reset ();
  check_int "unset gauge reads 0" 0 (Metrics.gauge "pool.resident");
  Metrics.set_gauge "pool.resident" 4096;
  Metrics.set_gauge "pool.resident" 8192;
  check_int "last write wins" 8192 (Metrics.gauge "pool.resident");
  Metrics.with_label "g" (fun () -> Metrics.set_gauge "pool.resident" 17);
  check_int "labelled gauge separate" 17 (Metrics.gauge ~label:"g" "pool.resident");
  (match Metrics.gauge_list ~label:"" () with
  | [ ("pool.resident", 8192) ] -> ()
  | l -> Alcotest.failf "unexpected gauge listing (%d entries)" (List.length l));
  let all = List.map fst (Metrics.gauge_list ()) in
  check_bool "qualified gauge names" true
    (List.mem "pool.resident" all && List.mem "pool.resident{store=\"g\"}" all);
  (* gauges render as TYPE gauge and the exposition still lints *)
  let exposition = Metrics.prometheus () in
  check_bool "gauge typed" true
    (let needle = "# TYPE xmlstore_pool_resident gauge" in
     let n = String.length needle in
     let rec find i =
       i + n <= String.length exposition
       && (String.sub exposition i n = needle || find (i + 1))
     in
     find 0);
  (match Prom.lint exposition with
  | Ok () -> ()
  | Error problems -> Alcotest.fail (String.concat "; " problems));
  Metrics.reset ()

let test_scoped_reset () =
  Metrics.reset ();
  Metrics.incr "kept.count";
  Metrics.set_gauge "kept.gauge" 5;
  Metrics.observe_ns "kept.latency" 100;
  Metrics.with_label "victim" (fun () ->
      Metrics.incr "gone.count";
      Metrics.set_gauge "gone.gauge" 9;
      Metrics.observe_ns "gone.latency" 100);
  Metrics.reset ~label:"victim" ();
  check_int "victim counter dropped" 0 (Metrics.counter ~label:"victim" "gone.count");
  check_int "victim gauge dropped" 0 (Metrics.gauge ~label:"victim" "gone.gauge");
  check_int "victim histograms dropped" 0
    (List.length (Metrics.histogram_list ~label:"victim" ()));
  check_bool "victim label gone" true (not (List.mem "victim" (Metrics.labels ())));
  check_int "default counter survives" 1 (Metrics.counter ~label:"" "kept.count");
  check_int "default gauge survives" 5 (Metrics.gauge ~label:"" "kept.gauge");
  check_int "default histogram survives" 1
    (List.length (Metrics.histogram_list ~label:"" ()));
  Metrics.reset ();
  check_bool "full reset empties registry" true (Metrics.labels () = [])

let test_store_label_separation () =
  Metrics.reset ();
  let s1 = Store.create ~metrics_label:"one" "edge" in
  let s2 = Store.create ~metrics_label:"two" "edge" in
  let dom = Xmlkit.Parser.parse doc_src in
  let d1 = Store.add_document s1 dom in
  let d2 = Store.add_document s2 dom in
  ignore (Store.query s1 d1 "/site/people/person/name");
  ignore (Store.query s1 d1 "/site/people/person/name");
  ignore (Store.query s2 d2 "/site/people/person/name");
  let count label =
    match List.assoc_opt "store.query.edge" (Metrics.histogram_list ~label ()) with
    | Some s -> s.Metrics.hs_count
    | None -> 0
  in
  check_int "store one queries" 2 (count "one");
  check_int "store two queries" 1 (count "two");
  check_string "accessor" "one" (Store.metrics_label s1);
  (* auto labels are distinct *)
  let s3 = Store.create "edge" and s4 = Store.create "edge" in
  check_bool "auto labels differ" true
    (not (String.equal (Store.metrics_label s3) (Store.metrics_label s4)));
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  with_sampling Trace.Always @@ fun () ->
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> Trace.with_span "leaf" (fun () -> 7)))
  in
  check_int "result threaded" 7 r;
  let spans = Trace.spans () in
  check_int "three spans" 3 (List.length spans);
  (match Export.check_well_nested spans with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let outer = List.find (fun s -> s.Trace.name = "outer") spans in
  let inner = List.find (fun s -> s.Trace.name = "inner") spans in
  let leaf = List.find (fun s -> s.Trace.name = "leaf") spans in
  check_bool "root has no parent" true (outer.Trace.parent_id = None);
  check_bool "inner under outer" true (inner.Trace.parent_id = Some outer.Trace.span_id);
  check_bool "leaf under inner" true (leaf.Trace.parent_id = Some inner.Trace.span_id);
  check_bool "one trace" true
    (outer.Trace.trace_id = inner.Trace.trace_id && inner.Trace.trace_id = leaf.Trace.trace_id)

let test_span_finishes_on_raise () =
  with_sampling Trace.Always @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Trace.spans () with
  | [ s ] ->
    check_string "span kept" "boom" s.Trace.name;
    check_bool "finished" true (s.Trace.dur_ns >= 0)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_sampling_off_records_nothing () =
  with_sampling Trace.Off @@ fun () ->
  ignore (Trace.with_span "invisible" (fun () -> 1));
  check_int "no spans" 0 (List.length (Trace.spans ()));
  check_bool "not recording" true (not (Trace.recording ()))

let test_slow_only_sampling () =
  with_sampling (Trace.Slow_only 5_000_000) @@ fun () ->
  ignore (Trace.with_span "fast" (fun () -> ()));
  check_int "fast trace dropped" 0 (List.length (Trace.spans ()));
  ignore (Trace.with_span "slow" (fun () -> Unix.sleepf 0.01));
  check_int "slow trace kept" 1 (List.length (Trace.spans ()))

(* Random well-formed span trees: with_span recursion driven by a seed
   list; the collected spans must be well nested and the Chrome export
   must parse as JSON with one event per span. *)
let span_tree_prop =
  QCheck.Test.make ~name:"random span trees export well-nested valid JSON" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 30) (int_range 0 2))
    (fun shape ->
      Trace.set_sampling Trace.Always;
      Trace.clear ();
      let rest = ref shape in
      let rec build depth =
        match !rest with
        | [] -> ()
        | width :: tl ->
          rest := tl;
          for _ = 1 to width do
            if depth < 6 then Trace.with_span "n" (fun () -> build (depth + 1))
          done
      in
      Trace.with_span "root" (fun () -> build 0);
      let spans = Trace.spans () in
      let nested = Export.check_well_nested spans = Ok () in
      let json = Export.to_chrome_json spans in
      let parses =
        match Json.parse json with
        | Ok (Json.Obj fields) -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.List evs) -> List.length evs = List.length spans
          | _ -> false)
        | _ -> false
      in
      let validates =
        match Export.validate_chrome_json json with
        | Ok n -> n = List.length spans
        | Error _ -> false
      in
      Trace.set_sampling Trace.Off;
      Trace.clear ();
      nested && parses && validates)

(* ------------------------------------------------------------------ *)
(* End-to-end traces through the store *)

let operator_kinds =
  [
    "SeqScan"; "IndexScan"; "IndexProbes"; "Filter"; "Project"; "NestedLoopJoin"; "HashJoin";
    "StaircaseJoin"; "Aggregate"; "Sort"; "Distinct"; "Limit"; "UnionAll";
  ]

let test_store_trace_phases () =
  List.iter
    (fun scheme ->
      with_sampling Trace.Always @@ fun () ->
      let store = Store.create scheme in
      let doc = Store.add_string store doc_src in
      ignore (Store.query store doc "/site/people/person/name");
      ignore (Store.get_document store doc);
      let spans = Trace.spans () in
      (match Export.check_well_nested spans with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" scheme e);
      let has name = List.exists (fun s -> s.Trace.name = name) spans in
      List.iter
        (fun name ->
          if not (has name) then Alcotest.failf "%s: missing %s span" scheme name)
        [
          "store.add_document"; "xml.parse"; "shred"; "store.query"; "xpath.parse";
          "translate"; "sql.plan"; "sql.execute"; "store.get_document"; "reconstruct";
        ];
      (* the execute span has operator children bridged from ANALYZE *)
      let execute =
        List.find (fun s -> s.Trace.name = "sql.execute" && s.Trace.attrs <> []) spans
      in
      let operators =
        List.filter (fun s -> s.Trace.parent_id = Some execute.Trace.span_id) spans
      in
      check_bool (scheme ^ " operators under execute") true (operators <> []);
      (* operator spans are named by kind, never by a rendered plan line *)
      List.iter
        (fun s ->
          if not (List.mem s.Trace.name operator_kinds) then
            Alcotest.failf "%s: operator span named %S" scheme s.Trace.name)
        operators;
      match Export.validate_chrome_json (Export.to_chrome_json spans) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: chrome export: %s" scheme e)
    [ "edge"; "interval"; "dewey" ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let test_prometheus_lints () =
  Metrics.reset ();
  let store = Store.create ~metrics_label:"prom" "interval" in
  let doc = Store.add_string store doc_src in
  ignore (Store.query store doc "/site/people/person/name");
  ignore (Store.get_document store doc);
  let exposition = Metrics.prometheus () in
  (match Prom.lint exposition with
  | Ok () -> ()
  | Error problems -> Alcotest.fail (String.concat "; " problems));
  check_bool "has HELP" true
    (String.length exposition > 0
    && String.sub exposition 0 6 = "# HELP");
  (* per-label filtering produces a lintable exposition too *)
  (match Prom.lint (Metrics.prometheus ~label:"prom" ()) with
  | Ok () -> ()
  | Error problems -> Alcotest.fail (String.concat "; " problems));
  Metrics.reset ()

let test_prom_lint_catches_garbage () =
  check_bool "untyped sample" true
    (Result.is_error (Prom.lint "orphan_metric 1\n"));
  check_bool "duplicate series" true
    (Result.is_error
       (Prom.lint
          "# HELP m_total h\n# TYPE m_total counter\nm_total 1\nm_total 2\n"))

(* ------------------------------------------------------------------ *)
(* Slow-query log *)

let test_slow_log () =
  let store = Store.create "edge" in
  let doc = Store.add_string store doc_src in
  check_bool "disarmed by default" true (Store.slow_threshold_ms store = None);
  ignore (Store.query store doc "/site/people/person/name");
  check_int "nothing retained while disarmed" 0 (List.length (Store.slow_log store));
  Store.set_slow_threshold store (Some 0.0);
  ignore (Store.query store doc "/site/people/person/name");
  (match Store.slow_log store with
  | [ e ] ->
    check_string "xpath" "/site/people/person/name" e.Store.se_xpath;
    check_string "scheme" "edge" e.Store.se_scheme;
    check_bool "not a fallback" true (not e.Store.se_fallback);
    check_bool "took time" true (e.Store.se_total_ns > 0);
    check_bool "statements captured" true (e.Store.se_statements <> []);
    let s = List.hd e.Store.se_statements in
    check_bool "sql text" true (String.length s.Store.ss_sql > 0);
    check_bool "params bound" true (Array.length s.Store.ss_params > 0);
    check_bool "plan rendered" true (String.length s.Store.ss_plan > 0);
    check_bool "analyze rows" true
      (Relstore.Plan.fold_annotated (fun acc a -> acc + a.Relstore.Plan.an_batches) 0
         s.Store.ss_annot
      > 0)
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
  (* a sky-high threshold retains nothing new *)
  Store.set_slow_threshold store (Some 1e9);
  ignore (Store.query store doc "/site/people/person/name");
  check_int "fast query not retained" 1 (List.length (Store.slow_log store));
  (* the log is bounded *)
  Store.set_slow_threshold store (Some 0.0);
  for _ = 1 to 40 do
    ignore (Store.query store doc "/site/people/person/name")
  done;
  check_int "bounded at 32" 32 (List.length (Store.slow_log store));
  Store.clear_slow_log store;
  check_int "cleared" 0 (List.length (Store.slow_log store))

let test_slow_log_capacity () =
  let store = Store.create "edge" in
  let doc = Store.add_string store doc_src in
  check_int "default capacity" 32 (Store.slow_log_capacity store);
  Store.set_slow_threshold store (Some 0.0);
  for _ = 1 to 6 do
    ignore (Store.query store doc "/site/people/person/name")
  done;
  check_int "six retained" 6 (List.length (Store.slow_log store));
  (* shrinking evicts the oldest immediately *)
  Store.set_slow_log_capacity store 2;
  check_int "shrink evicts" 2 (List.length (Store.slow_log store));
  check_int "capacity accessor" 2 (Store.slow_log_capacity store);
  (* the bound holds for new entries *)
  for _ = 1 to 5 do
    ignore (Store.query store doc "/site/people/person/name")
  done;
  check_int "bound honoured" 2 (List.length (Store.slow_log store));
  (* zero retains nothing, even with the threshold armed *)
  Store.set_slow_log_capacity store 0;
  check_int "zero empties" 0 (List.length (Store.slow_log store));
  ignore (Store.query store doc "/site/people/person/name");
  check_int "zero retains nothing" 0 (List.length (Store.slow_log store));
  (* negative is refused *)
  (match Store.set_slow_log_capacity store (-1) with
  | () -> Alcotest.fail "negative capacity accepted"
  | exception Store.Store_error _ -> ());
  (* growing again resumes retention *)
  Store.set_slow_log_capacity store 4;
  for _ = 1 to 6 do
    ignore (Store.query store doc "/site/people/person/name")
  done;
  check_int "regrown bound" 4 (List.length (Store.slow_log store))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic non-decreasing" `Quick test_clock_monotonic ] );
      ( "metrics",
        [
          QCheck_alcotest.to_alcotest bucket_boundaries_prop;
          QCheck_alcotest.to_alcotest percentile_monotone_prop;
          Alcotest.test_case "ambient labels" `Quick test_metrics_labels;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "scoped reset" `Quick test_scoped_reset;
          Alcotest.test_case "per-store separation" `Quick test_store_label_separation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and parents" `Quick test_span_nesting;
          Alcotest.test_case "finishes on raise" `Quick test_span_finishes_on_raise;
          Alcotest.test_case "off records nothing" `Quick test_sampling_off_records_nothing;
          Alcotest.test_case "slow-only sampling" `Quick test_slow_only_sampling;
          QCheck_alcotest.to_alcotest span_tree_prop;
          Alcotest.test_case "store phases traced" `Quick test_store_trace_phases;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition lints" `Quick test_prometheus_lints;
          Alcotest.test_case "lint catches garbage" `Quick test_prom_lint_catches_garbage;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "capture and bounds" `Quick test_slow_log;
          Alcotest.test_case "capacity control" `Quick test_slow_log_capacity;
        ] );
    ]
