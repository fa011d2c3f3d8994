(* Tests for the Store facade and the workload generators. *)

module Store = Xmlstore.Store
module Dom = Xmlkit.Dom

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

let small = { Xmlwork.Auction.default with scale = 0.05; seed = 11 }

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_generator_deterministic () =
  let a = Xmlwork.Auction.generate ~params:small () in
  let b = Xmlwork.Auction.generate ~params:small () in
  check_bool "same seed same doc" true (Dom.equal a b);
  let c = Xmlwork.Auction.generate ~params:{ small with seed = 12 } () in
  check_bool "different seed different doc" false (Dom.equal a c)

let test_generator_valid () =
  let doc = Xmlwork.Auction.generate ~params:small () in
  let dtd = Lazy.force Xmlwork.Auction.dtd in
  Alcotest.(check (list string))
    "auction doc validates" []
    (List.map Xmlkit.Dtd.violation_to_string (Xmlkit.Dtd.validate dtd doc));
  let bib = Xmlwork.Bibliography.generate ~params:{ Xmlwork.Bibliography.default with entries = 30 } () in
  Alcotest.(check (list string))
    "bibliography validates" []
    (List.map Xmlkit.Dtd.violation_to_string
       (Xmlkit.Dtd.validate (Lazy.force Xmlwork.Bibliography.dtd) bib));
  let deep = Xmlwork.Deep.generate ~params:{ Xmlwork.Deep.default with depth = 5 } () in
  Alcotest.(check (list string))
    "deep doc validates" []
    (List.map Xmlkit.Dtd.violation_to_string
       (Xmlkit.Dtd.validate (Lazy.force Xmlwork.Deep.dtd) deep))

let test_generator_scales () =
  let small_doc = Xmlwork.Auction.generate ~params:{ small with scale = 0.05 } () in
  let big_doc = Xmlwork.Auction.generate ~params:{ small with scale = 0.2 } () in
  check_bool "bigger scale, more nodes" true
    (Dom.count_nodes big_doc > 2 * Dom.count_nodes small_doc)

let test_rng_uniformity () =
  (* sanity: values spread over the range *)
  let rng = Xmlwork.Rng.create 99 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Xmlwork.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter (fun b -> check_bool "bucket roughly uniform" true (b > 700 && b < 1300)) buckets

(* ------------------------------------------------------------------ *)
(* Store facade *)

let scheme_store scheme =
  if String.equal scheme "inline" then
    Store.create ~dtd:(Lazy.force Xmlwork.Auction.dtd) scheme
  else Store.create scheme

let test_store_scheme scheme () =
  let store = scheme_store scheme in
  let doc = Xmlwork.Auction.generate ~params:small () in
  let id = Store.add_document ~name:"auction" store doc in
  check_int "first doc id" 0 id;
  (* round trip *)
  check_bool "round trip" true (Dom.equal doc (Store.get_document store id));
  (* queries agree with native evaluation *)
  let ix = Xmlkit.Index.of_document doc in
  List.iter
    (fun (q : Xmlwork.Queries.query) ->
      let expected = Xpathkit.Eval.select_strings ix q.Xmlwork.Queries.xpath in
      let r = Store.query store id q.Xmlwork.Queries.xpath in
      check_strings (scheme ^ " " ^ q.Xmlwork.Queries.qid) expected r.Store.values;
      if not (List.mem scheme [ "textblob"; "tokens" ]) then
        check_bool
          (scheme ^ " " ^ q.Xmlwork.Queries.qid ^ " fallback flag")
          (not q.Xmlwork.Queries.translatable)
          r.Store.fallback)
    Xmlwork.Queries.auction_queries;
  (* stats are populated *)
  let stats = Store.stats store in
  check_bool "has rows" true (stats.Store.total_rows > 0);
  check_bool "has bytes" true (stats.Store.total_bytes > 0);
  check_int "one document" 1 stats.Store.document_count

let test_store_multiple_docs () =
  let store = Store.create "edge" in
  let d0 = Store.add_string store "<a><b>x</b></a>" in
  let d1 = Store.add_string ~name:"second" store "<a><b>y</b><b>z</b></a>" in
  check_strings "doc0" [ "x" ] (Store.query_values store d0 "/a/b");
  check_strings "doc1" [ "y"; "z" ] (Store.query_values store d1 "/a/b");
  check_int "count" 2 (List.length (Store.documents store));
  check_bool "names recorded" true
    (List.exists (fun d -> d.Store.doc_name = Some "second") (Store.documents store))

let test_store_errors () =
  (match Store.create "nosuch" with
  | exception Store.Store_error _ -> ()
  | _ -> Alcotest.fail "unknown scheme should fail");
  (match Store.create "inline" with
  | exception Store.Store_error _ -> ()
  | _ -> Alcotest.fail "inline without dtd should fail");
  let store = Store.create "edge" in
  (match Store.query store 5 "/a" with
  | exception Store.Store_error _ -> ()
  | _ -> Alcotest.fail "unknown doc should fail");
  let id = Store.add_string store "<a/>" in
  match Store.query store id "///" with
  | exception _ -> ()
  | _ -> Alcotest.fail "bad xpath should fail"

let test_store_validation () =
  let dtd = Xmlkit.Dtd.parse "<!ELEMENT a (b)>\n<!ELEMENT b (#PCDATA)>" in
  let store = Store.create ~dtd ~validate:true "edge" in
  let ok = Store.add_string store "<a><b>x</b></a>" in
  check_int "valid stored" 0 ok;
  match Store.add_string store "<a><c/></a>" with
  | exception Store.Store_error _ -> ()
  | _ -> Alcotest.fail "invalid doc should be rejected"

let test_store_sql_access () =
  let store = Store.create "edge" in
  let _ = Store.add_string store "<a><b>x</b></a>" in
  (match Store.sql store "SELECT count(*) FROM edge" with
  | Relstore.Database.Rows r -> check_int "rows" 1 (List.length r.Relstore.Executor.rows)
  | _ -> Alcotest.fail "expected rows");
  let plan = Store.explain store "SELECT target FROM edge WHERE name = 'b'" in
  check_bool "explain shows plan" true (String.length plan > 0)

let test_store_translate_sql () =
  let store = Store.create "interval" in
  let id = Store.add_string store "<a><b>x</b></a>" in
  match Store.translate_sql store id "/a/b" with
  | [ sql ] -> check_bool "single statement" true (String.length sql > 20)
  | _ -> Alcotest.fail "interval should produce one statement"

(* EXPLAIN ANALYZE must not change answers, and the instrumented trees must
   account for every translated statement with sane actuals. *)
let test_store_analyze scheme () =
  let store = scheme_store scheme in
  let doc = Xmlwork.Auction.generate ~params:small () in
  let id = Store.add_document store doc in
  List.iter
    (fun (q : Xmlwork.Queries.query) ->
      let xpath = q.Xmlwork.Queries.xpath in
      let plain = Store.query store id xpath in
      let analyzed = Store.query ~analyze:true store id xpath in
      check_strings (scheme ^ " " ^ q.Xmlwork.Queries.qid ^ " analyze on = off")
        plain.Store.values analyzed.Store.values;
      check_bool (scheme ^ " " ^ q.Xmlwork.Queries.qid ^ " analyze off collects nothing") true
        (plain.Store.analyzed = []);
      List.iter
        (fun (sql, annot) ->
          check_bool (scheme ^ ": statement text recorded") true (String.length sql > 0);
          check_bool (scheme ^ ": operators present") true
            (Relstore.Plan.annotated_operator_count annot >= 1);
          check_bool (scheme ^ ": counters sane") true
            (Relstore.Plan.fold_annotated
               (fun ok a ->
                 ok && a.Relstore.Plan.an_rows >= 0
                 && a.Relstore.Plan.an_batches <= a.Relstore.Plan.an_rows
                 && (a.Relstore.Plan.an_rows = 0) = (a.Relstore.Plan.an_batches = 0)
                 && a.Relstore.Plan.an_ns >= 0)
               true annot))
        analyzed.Store.analyzed)
    Xmlwork.Queries.auction_queries

let test_store_without_indexes () =
  let store = Store.create ~indexes:false "edge" in
  let id = Store.add_string store "<a><b>x</b></a>" in
  check_strings "still correct" [ "x" ] (Store.query_values store id "/a/b");
  let stats = Store.stats store in
  check_int "no index entries" 0 stats.Store.total_index_entries

let () =
  Alcotest.run "core"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "DTD-valid" `Quick test_generator_valid;
          Alcotest.test_case "scales" `Quick test_generator_scales;
          Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
        ] );
      ( "store",
        List.map
          (fun scheme ->
            Alcotest.test_case ("scheme " ^ scheme) `Slow (test_store_scheme scheme))
          (Store.schemes ())
        @ [
            Alcotest.test_case "multiple documents" `Quick test_store_multiple_docs;
            Alcotest.test_case "errors" `Quick test_store_errors;
            Alcotest.test_case "validation" `Quick test_store_validation;
            Alcotest.test_case "raw sql" `Quick test_store_sql_access;
            Alcotest.test_case "translate sql" `Quick test_store_translate_sql;
            Alcotest.test_case "without indexes" `Quick test_store_without_indexes;
          ] );
      ( "explain analyze",
        List.map
          (fun scheme ->
            Alcotest.test_case ("analyze " ^ scheme) `Slow (test_store_analyze scheme))
          (Store.schemes ()) );
    ]
