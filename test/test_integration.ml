(* Integration tests: multi-component flows across the whole stack —
   generator -> store -> updates -> queries -> reconstruction ->
   compression, plus cross-scheme consistency on a realistic document. *)

module Store = Xmlstore.Store
module Dom = Xmlkit.Dom

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

let auction_doc =
  lazy
    (Xmlwork.Auction.generate
       ~params:{ Xmlwork.Auction.default with scale = 0.3; seed = 7 }
       ())

let all_stores () =
  List.map
    (fun scheme ->
      let store =
        if String.equal scheme "inline" then
          Store.create ~dtd:(Lazy.force Xmlwork.Auction.dtd) scheme
        else Store.create scheme
      in
      ignore (Store.add_document store (Lazy.force auction_doc));
      (scheme, store))
    (Store.schemes ())

(* Every scheme gives the same answer to every workload query. *)
let test_cross_scheme_consistency () =
  let stores = all_stores () in
  List.iter
    (fun (q : Xmlwork.Queries.query) ->
      let answers =
        List.map (fun (s, store) -> (s, Store.query_values store 0 q.Xmlwork.Queries.xpath)) stores
      in
      match answers with
      | (_, reference) :: rest ->
        List.iter
          (fun (scheme, got) ->
            check_strings (q.Xmlwork.Queries.qid ^ " agrees on " ^ scheme) reference got)
          rest
      | [] -> Alcotest.fail "no schemes")
    Xmlwork.Queries.auction_queries

let with_sampling mode f =
  let prev = Obskit.Trace.sampling () in
  Obskit.Trace.set_sampling mode;
  Fun.protect ~finally:(fun () -> Obskit.Trace.set_sampling prev) f

(* One interpreter: tracing a query, capturing its statements or asking for
   ANALYZE runs the same execution as running it unobserved, so every
   workload query answers byte-for-byte alike on every scheme, and each
   captured statement's root operator counted exactly the rows the
   statement returns. *)
let test_observed_equals_unobserved () =
  let stores = all_stores () in
  List.iter
    (fun (q : Xmlwork.Queries.query) ->
      List.iter
        (fun (scheme, store) ->
          let xpath = q.Xmlwork.Queries.xpath in
          let label what = Printf.sprintf "%s %s on %s" q.Xmlwork.Queries.qid what scheme in
          let values () = Store.query_values store 0 xpath in
          let plain = with_sampling Obskit.Trace.Off values in
          check_strings (label "traced") plain (with_sampling Obskit.Trace.Always values);
          let captured, caps = Xmlshred.Mapping.collect_captures values in
          check_strings (label "captured") plain captured;
          check_strings (label "analyzed") plain (Store.query ~analyze:true store 0 xpath).Store.values;
          List.iter
            (fun (c : Xmlshred.Mapping.capture) ->
              let r =
                Relstore.Database.query ~params:c.Xmlshred.Mapping.cap_params
                  (Store.database store) c.Xmlshred.Mapping.cap_sql
              in
              check_int (label "root rows")
                (List.length r.Relstore.Executor.rows)
                c.Xmlshred.Mapping.cap_annot.Relstore.Plan.an_rows)
            caps)
        stores)
    Xmlwork.Queries.auction_queries

let with_staircase on f =
  Relstore.Planner.set_staircase on;
  Fun.protect ~finally:(fun () -> Relstore.Planner.set_staircase true) f

let deep_doc depth =
  let rec go n =
    if n = 0 then Dom.element "leaf" [ Dom.text "bottom" ] else Dom.element "d" [ go (n - 1) ]
  in
  Dom.document (Dom.elem "root" [ go depth ])

let fanout_doc width =
  Dom.document
    (Dom.elem "root"
       (List.init width (fun i ->
            Dom.element "c" [ Dom.element "g" [ Dom.text (string_of_int (i mod 7)) ] ])))

let random_doc st =
  let rec gen depth =
    let tag = [| "x"; "y"; "z" |].(Random.State.int st 3) in
    let kids =
      if depth = 0 then [ Dom.text (string_of_int (Random.State.int st 5)) ]
      else
        List.init
          (1 + Random.State.int st 3)
          (fun _ -> if Random.State.int st 4 = 0 then Dom.text "t" else gen (depth - 1))
    in
    Dom.element tag kids
  in
  Dom.document (Dom.elem "r" [ gen (2 + Random.State.int st 4) ])

(* The staircase structural join answers descendant-axis queries exactly
   like the nested-loop plan it replaces — on a degenerate 200-deep
   recursion chain, a 2000-way fanout, and randomized trees. *)
let test_staircase_matches_nested_loop () =
  let docs =
    (deep_doc 200, [ "//d//leaf"; "//d//d" ])
    :: (fanout_doc 2000, [ "//c//g"; "/root//g" ])
    :: List.init 8 (fun i ->
           let st = Random.State.make [| (31 * i) + 5 |] in
           (random_doc st, [ "//x//y"; "//y//z"; "/r//x" ]))
  in
  List.iter
    (fun (dom, paths) ->
      let store = Store.create "interval" in
      let doc = Store.add_document store dom in
      (* replan on every query so the toggle really changes the join *)
      Relstore.Database.set_plan_cache (Store.database store) false;
      List.iter
        (fun path ->
          let stair = with_staircase true (fun () -> Store.query_values store doc path) in
          let nl = with_staircase false (fun () -> Store.query_values store doc path) in
          check_strings (path ^ " staircase equals nested loop") nl stair)
        paths)
    docs

(* All schemes round-trip the same realistic document. *)
let test_cross_scheme_roundtrip () =
  let dom = Lazy.force auction_doc in
  List.iter
    (fun (scheme, store) ->
      check_bool (scheme ^ " round trip") true (Dom.equal dom (Store.get_document store 0)))
    (all_stores ())

(* Full pipeline: generate -> validate -> store -> update -> query ->
   reconstruct -> compress -> decompress -> re-store -> query. *)
let test_full_pipeline () =
  let dtd = Lazy.force Xmlwork.Auction.dtd in
  let dom = Lazy.force auction_doc in
  check_bool "generator output is DTD-valid" true (Xmlkit.Dtd.is_valid dtd dom);
  let store = Store.create ~dtd ~validate:true "interval" in
  let doc = Store.add_document store dom in
  let before = Store.query_count store doc "//keyword" in
  ignore
    (Store.append_child store doc ~parent:"/site/regions/asia"
       (Dom.element "item"
          ~attrs:[ Dom.attr "id" "itemZZ" ]
          [
            Dom.element "name" [ Dom.text "integration special" ];
            Dom.element "category" [ Dom.text "tools" ];
            Dom.element "location" [ Dom.text "Japan" ];
            Dom.element "quantity" [ Dom.text "1" ];
            Dom.element "payment" [ Dom.text "Cash" ];
            Dom.element "keyword" [ Dom.text "integrationkw" ];
            Dom.element "description" [ Dom.text "pipeline test" ];
          ]));
  check_int "keyword count grew" (before + 1) (Store.query_count store doc "//keyword");
  check_strings "new item findable" [ "integration special" ]
    (Store.query_values store doc "//item[@id='itemZZ']/name");
  (* reconstruct, compress, decompress, and the result still matches *)
  let updated = Store.get_document store doc in
  check_bool "updated doc still DTD-valid" true (Xmlkit.Dtd.is_valid dtd updated);
  let packed = Xmlkit.Compress.encode updated in
  let unpacked = Xmlkit.Compress.decode packed in
  check_bool "compression survives the update" true (Dom.equal updated unpacked);
  (* re-store the decompressed document in a different scheme *)
  let store2 = Store.create "edge" in
  let doc2 = Store.add_document store2 unpacked in
  check_strings "re-stored doc answers the same" [ "integration special" ]
    (Store.query_values store2 doc2 "//item[@id='itemZZ']/name")

(* Serialization formats interoperate: file -> parse -> store -> pretty ->
   reparse -> equal. *)
let test_file_roundtrip () =
  let dom = Lazy.force auction_doc in
  let path = Filename.temp_file "xmlstore" ".xml" in
  Xmlkit.Serializer.to_file ~mode:(Xmlkit.Serializer.Pretty 2) path dom;
  let store = Store.create "dewey" in
  let doc = Store.add_file store path in
  Sys.remove path;
  check_bool "file round trip" true (Dom.equal dom (Store.get_document store doc))

(* The documents registry tracks per-document metadata through mixed
   workloads. *)
let test_registry_metadata () =
  let store = Store.create "edge" in
  let d0 = Store.add_string ~name:"tiny" store "<a><b>x</b></a>" in
  let d1 = Store.add_document ~name:"big" store (Lazy.force auction_doc) in
  let infos = Store.documents store in
  check_int "two docs" 2 (List.length infos);
  let info0 = List.find (fun i -> i.Store.doc = d0) infos in
  let info1 = List.find (fun i -> i.Store.doc = d1) infos in
  check_bool "names" true (info0.Store.doc_name = Some "tiny" && info1.Store.doc_name = Some "big");
  check_int "tiny node count" 3 info0.Store.nodes;
  check_bool "big is bigger" true (info1.Store.nodes > 1000);
  Alcotest.(check string) "root tags" "a site" (info0.Store.root_tag ^ " " ^ info1.Store.root_tag)

(* SQL-level cross-checks: aggregates over the shredded form agree with the
   document structure. *)
let test_sql_against_structure () =
  let dom = Lazy.force auction_doc in
  let ix = Xmlkit.Index.of_document dom in
  let stats = Xmlkit.Index.stats ix in
  let store = Store.create "interval" in
  ignore (Store.add_document store dom);
  (match Store.sql store "SELECT count(*) FROM accel WHERE kind = 'e'" with
  | Relstore.Database.Rows { rows = [ [| Relstore.Value.Int n |] ]; _ } ->
    check_int "element count via SQL" stats.Xmlkit.Index.elements n
  | _ -> Alcotest.fail "count query failed");
  (match Store.sql store "SELECT max(level) FROM accel WHERE kind = 'e'" with
  | Relstore.Database.Rows { rows = [ [| Relstore.Value.Int d |] ]; _ } ->
    check_int "depth via SQL" stats.Xmlkit.Index.max_depth d
  | _ -> Alcotest.fail "depth query failed");
  match
    Store.sql store
      "SELECT name, count(*) FROM accel WHERE kind = 'e' GROUP BY name ORDER BY count(*) DESC, \
       name LIMIT 1"
  with
  | Relstore.Database.Rows { rows = [ [| name; _ |] ]; _ } ->
    (* items dominate the auction skeleton's repeated structure *)
    check_bool "most frequent tag is plausible" true
      (List.mem (Relstore.Value.to_string name) [ "item"; "name"; "keyword"; "text" ])
  | _ -> Alcotest.fail "group query failed"

(* Persist a store to disk and reopen it: documents, queries, and updates
   all keep working. *)
let test_save_load () =
  let store = Store.create "edge" in
  let d0 = Store.add_string ~name:"one" store "<a><b>x</b><b>y</b></a>" in
  ignore (Store.add_string ~name:"two" store "<c><d>z</d></c>");
  let path = Filename.temp_file "xmlstore" ".sql" in
  Store.save store path;
  let reopened = Store.load ~scheme:"edge" path in
  Sys.remove path;
  check_int "documents survive" 2 (List.length (Store.documents reopened));
  check_strings "query works" [ "x"; "y" ] (Store.query_values reopened d0 "/a/b");
  check_bool "round trip" true
    (Dom.equal (Xmlkit.Parser.parse "<a><b>x</b><b>y</b></a>") (Store.get_document reopened d0));
  (* new documents get fresh ids after reload *)
  let d2 = Store.add_string reopened "<e/>" in
  check_int "next id continues" 2 d2;
  (* updates still work on the reopened store *)
  ignore (Store.append_child reopened d0 ~parent:"/a" (Dom.element "b" [ Dom.text "w" ]));
  check_strings "update after reload" [ "x"; "y"; "w" ] (Store.query_values reopened d0 "/a/b")

(* Analysis tools compose: reconstruct from the store, summarize with a
   DataGuide, cross-check counts against both the SQL form and a FLWOR
   report. *)
let test_summaries_agree () =
  let dom = Lazy.force auction_doc in
  let store = Store.create "edge" in
  let doc = Store.add_document store dom in
  let back = Store.get_document store doc in
  let ix = Xmlkit.Index.of_document back in
  let dg = Xmlkit.Dataguide.of_index ix in
  (* DataGuide count = store query count = SQL count for a child chain *)
  let via_guide = Xmlkit.Dataguide.count_path dg [ "site"; "people"; "person" ] in
  let via_store = Store.query_count store doc "/site/people/person" in
  (match Store.sql store "SELECT count(*) FROM edge WHERE kind = 'e' AND name = 'person'" with
  | Relstore.Database.Rows { rows = [ [| Relstore.Value.Int via_sql |] ]; _ } ->
    check_int "guide = store" via_store via_guide;
    check_int "guide = sql" via_sql via_guide
  | _ -> Alcotest.fail "sql count failed");
  (* a FLWOR report over the same store produces one row per person *)
  let report =
    Xpathkit.Flwor.run ix "for $p in /site/people/person return <row>{$p/name}</row>"
  in
  check_int "flwor rows" via_guide (List.length report);
  (* column statistics on the edge table see every node *)
  let st = Relstore.Database.analyze (Store.database store) "edge" in
  check_int "stats row count" st.Relstore.Stats.ts_rows (Xmlkit.Dom.count_nodes back)

(* Error propagation end to end. *)
let test_error_paths () =
  let store = Store.create "edge" in
  (match Store.add_string store "<broken" with
  | exception Xmlkit.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed XML accepted");
  let doc = Store.add_string store "<a/>" in
  (match Store.query store doc "not a path ((" with
  | exception _ -> ()
  | _ -> Alcotest.fail "bad xpath accepted");
  (match Store.sql store "SELEKT" with
  | exception _ -> ()
  | _ -> Alcotest.fail "bad sql accepted");
  match Store.get_document store 99 with
  | exception Store.Store_error _ -> ()
  | _ -> Alcotest.fail "missing doc accepted"

(* Explain output names the expected operators. *)
let test_explain_shapes () =
  let store = Store.create "edge" in
  ignore (Store.add_string store "<a><b>x</b></a>");
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let plan1 = Store.explain store "SELECT target FROM edge WHERE name = 'b'" in
  check_bool "index scan in plan" true (contains plan1 "IndexScan");
  let plan2 =
    Store.explain store
      "SELECT e1.target FROM edge e1, edge e2 WHERE e1.source = e2.target AND e2.name = 'a'"
  in
  check_bool "hash join in plan" true (contains plan2 "HashJoin");
  let plan3 = Store.explain store "SELECT name, count(*) FROM edge GROUP BY name" in
  check_bool "aggregate in plan" true (contains plan3 "Aggregate")

let () =
  Alcotest.run "integration"
    [
      ( "cross-scheme",
        [
          Alcotest.test_case "query consistency" `Slow test_cross_scheme_consistency;
          Alcotest.test_case "round trips" `Slow test_cross_scheme_roundtrip;
          Alcotest.test_case "observed equals unobserved" `Slow test_observed_equals_unobserved;
        ] );
      ( "staircase join",
        [
          Alcotest.test_case "deep, wide and random documents" `Slow
            test_staircase_matches_nested_loop;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "full pipeline" `Slow test_full_pipeline;
          Alcotest.test_case "file round trip" `Quick test_file_roundtrip;
          Alcotest.test_case "registry metadata" `Quick test_registry_metadata;
          Alcotest.test_case "sql vs structure" `Quick test_sql_against_structure;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "summaries agree" `Quick test_summaries_agree;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "explain shapes" `Quick test_explain_shapes;
        ] );
    ]
