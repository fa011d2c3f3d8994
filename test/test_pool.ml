(* Concurrency suite for the store pool: answer equality against the
   direct single-threaded path, snapshot isolation under an in-flight
   bulk load, metrics scrapes racing query load, and replica-permit
   accounting when readers fail. The races run real [Domain.spawn]
   parallelism; on a single-core host they still interleave at GC safe
   points, which is exactly the torn-state exposure the pool must
   mask. *)

module Store = Xmlstore.Store
module Pool = Storepool.Pool
module Metrics = Relstore.Metrics
module Prom = Obskit.Prom

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let strings = Alcotest.(list string)
let check_strings = Alcotest.(check strings)

let gen_doc seed =
  Xmlwork.Auction.generate ~params:{ Xmlwork.Auction.default with seed; scale = 0.05 } ()

let fresh_store ?(scheme = "edge") () =
  let store = Store.create ~metrics_label:"pool-test" scheme in
  let doc = Store.add_document store (gen_doc 7) in
  (store, doc)

(* ------------------------------------------------------------------ *)
(* Answer equality: every Q1-Q12 through the pool must answer byte-for-
   byte what the direct store answers, across reuse/refresh/rebuild. *)

let test_pool_equals_direct () =
  List.iter
    (fun scheme ->
      let direct, doc = fresh_store ~scheme () in
      let snap_twin = Store.of_snapshot (Store.snapshot direct) in
      let pool = Pool.create ~readers:2 snap_twin in
      List.iter
        (fun (q : Xmlwork.Queries.query) ->
          check_strings
            (scheme ^ " " ^ q.Xmlwork.Queries.qid)
            (Store.query_values direct doc q.Xmlwork.Queries.xpath)
            (fst (Pool.query pool doc q.Xmlwork.Queries.xpath)).Store.values)
        Xmlwork.Queries.auction_queries)
    [ "edge"; "interval"; "dewey" ]

(* qcheck: random query subsets in random order, interleaved with
   releases, still answer equal to the direct path. *)
let prop_random_workload =
  let direct, doc = fresh_store () in
  let pool = Pool.create ~readers:3 (Store.of_snapshot (Store.snapshot direct)) in
  let queries = Array.of_list Xmlwork.Queries.auction_queries in
  QCheck.Test.make ~count:30 ~name:"random pool workloads answer like the direct store"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 0 (Array.length queries - 1)))
    (fun picks ->
      List.for_all
        (fun i ->
          let x = queries.(i).Xmlwork.Queries.xpath in
          (fst (Pool.query pool doc x)).Store.values = Store.query_values direct doc x)
        picks)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation: two reader domains race three committing loads
   over the whole Q1-Q12 workload. Every document must answer either not
   at all (its load is not visible yet) or byte-for-byte what a direct
   store holding it answers, never a torn state. *)

let test_snapshot_isolation () =
  let store, doc0 = fresh_store () in
  let new_docs = List.map gen_doc [ 11; 12; 13 ] in
  let xpaths = List.map (fun q -> q.Xmlwork.Queries.xpath) Xmlwork.Queries.auction_queries in
  let direct_answers dom =
    let direct = Store.create "edge" in
    let d = Store.add_document direct dom in
    List.map (Store.query_values direct d) xpaths
  in
  (* doc0 plus the loads, in the ids the loads will get *)
  let expected =
    (doc0, direct_answers (gen_doc 7))
    :: List.mapi (fun i dom -> (doc0 + 1 + i, direct_answers dom)) new_docs
  in
  let pool = Pool.create ~readers:3 store in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              List.iter
                (fun (doc, answers) ->
                  List.iter2
                    (fun xpath want ->
                      match Pool.query pool doc xpath with
                      | r, _ -> if r.Store.values <> want then Atomic.incr torn
                      | exception Store.Store_error _ -> if doc = doc0 then Atomic.incr torn)
                    xpaths answers)
                expected
            done))
  in
  let loaded = List.map (fun dom -> Pool.apply pool (fun s -> Store.add_document s dom)) new_docs in
  (* the last load is visible to a reader once its commit returned *)
  let last_doc = List.nth loaded 2 in
  let last, _ = Pool.query pool last_doc (List.hd xpaths) in
  Atomic.set stop true;
  List.iter Domain.join readers;
  check_int "no torn observation" 0 (Atomic.get torn);
  check_strings "post-load answer complete"
    (List.hd (List.assoc last_doc expected))
    last.Store.values;
  check_int "epoch advanced" 3 (Pool.epoch pool)

(* ------------------------------------------------------------------ *)
(* Epoch attribution under concurrent commits. One writer domain appends a
   marker element to document 0 per commit; another loads documents. So at
   epoch e, document 0 holds e - (loads published at or before e)
   markers, and the k-th load (in epoch order) is document k. Readers
   querying the markers must get exactly the count their reported epoch
   implies, and every load must report the epoch it published. *)

let test_epoch_names_snapshot () =
  let store = Store.create ~metrics_label:"pool-test" "edge" in
  let doc0 = Store.add_string store "<log/>" in
  let pool = Pool.create ~readers:2 store in
  let rounds = 12 in
  let marker = Xmlkit.Dom.element "m" [ Xmlkit.Dom.text "x" ] in
  let appender =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          ignore (Pool.apply pool (fun s -> Store.append_child s doc0 ~parent:"/log" marker))
        done)
  in
  let loader =
    Domain.spawn (fun () -> List.init rounds (fun _ -> Pool.load_string pool "<doc/>"))
  in
  let stop = Atomic.make false in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let seen = ref [] in
            while not (Atomic.get stop) do
              let r, epoch = Pool.query pool doc0 "/log/m" in
              seen := (List.length r.Store.values, epoch) :: !seen
            done;
            !seen))
  in
  Domain.join appender;
  let loads = Domain.join loader in
  Atomic.set stop true;
  let observations = List.concat_map Domain.join readers in
  check_int "every commit published an epoch" (2 * rounds) (Pool.epoch pool);
  let load_epochs = List.sort compare (List.map snd loads) in
  check_int "load epochs are distinct" rounds (List.length (List.sort_uniq compare load_epochs));
  check_bool "each load is the document its epoch implies" true
    (List.for_all
       (fun (doc, epoch) ->
         doc = List.length (List.filter (fun e -> e <= epoch) load_epochs))
       loads);
  check_bool "readers observed something" true (observations <> []);
  List.iter
    (fun (markers, epoch) ->
      check_int
        (Printf.sprintf "markers at reported epoch %d" epoch)
        (epoch - List.length (List.filter (fun e -> e <= epoch) load_epochs))
        markers)
    observations

(* ------------------------------------------------------------------ *)
(* Metrics under fire: concurrent scrapes while reader domains hammer
   queries must always render a Prom.lint-clean exposition. *)

let test_metrics_scrape_race () =
  let store, doc = fresh_store () in
  let pool = Pool.create ~readers:2 store in
  Pool.declare_series ();
  let stop = Atomic.make false in
  let workers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Pool.query pool doc "//item/name")
            done))
  in
  let failures = ref [] in
  for _ = 1 to 25 do
    let body = Metrics.prometheus () in
    match Prom.lint body with
    | Ok () -> ()
    | Error problems -> failures := problems @ !failures
  done;
  Atomic.set stop true;
  List.iter Domain.join workers;
  check_strings "every concurrent scrape lints clean" [] !failures

(* ------------------------------------------------------------------ *)
(* Permit accounting: a failing reader must never leak its slot. *)

let test_no_leak_on_reader_failure () =
  let store, doc = fresh_store () in
  let pool = Pool.create ~readers:2 store in
  for _ = 1 to 10 do
    (try Pool.with_reader pool (fun _ -> failwith "reader blew up")
     with Failure _ -> ());
    (* a bad xpath raises inside query as well *)
    try ignore (Pool.query pool doc "///") with Xpathkit.Parser.Parse_error _ -> ()
  done;
  check_int "no outstanding permits" 0 (Pool.outstanding pool);
  (* both permits still usable: hold one while using the other *)
  let r = Pool.acquire pool in
  check_int "one outstanding" 1 (Pool.outstanding pool);
  let v = Pool.with_reader pool (fun s -> List.length (Store.query_values s doc "//keyword")) in
  check_bool "pool still answers" true (v >= 0);
  Pool.release pool r;
  check_int "drained" 0 (Pool.outstanding pool)

let prop_permits_conserved =
  QCheck.Test.make ~count:30 ~name:"random acquire/fail/release sequences conserve permits"
    QCheck.(list_of_size Gen.(int_range 1 20) bool)
    (fun plan ->
      let store, doc = fresh_store () in
      let pool = Pool.create ~readers:2 store in
      List.iter
        (fun ok ->
          if ok then ignore (Pool.query pool doc "/site/people/person/name")
          else
            try Pool.with_reader pool (fun _ -> failwith "boom") with Failure _ -> ())
        plan;
      Pool.outstanding pool = 0)

(* ------------------------------------------------------------------ *)
(* Epoch refresh: a replica cached before a commit is rebuilt, not
   reused, on the acquire that follows. *)

let test_epoch_refresh () =
  let store, doc = fresh_store () in
  let pool = Pool.create ~readers:1 store in
  ignore (Pool.query pool doc "//keyword");
  check_int "fresh pool epoch" 0 (Pool.epoch pool);
  let doc2, _ = Pool.load_string pool "<site><people><person id=\"px\"><name>Late Arrival</name></person></people></site>" in
  check_int "epoch bumped" 1 (Pool.epoch pool);
  check_strings "new document visible through the pool" [ "Late Arrival" ]
    (fst (Pool.query pool doc2 "/site/people/person/name")).Store.values;
  check_strings "old document still answers"
    (Store.query_values store doc "/site/people/person/name")
    (fst (Pool.query pool doc "/site/people/person/name")).Store.values

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "pool"
    [
      ( "equality",
        [
          Alcotest.test_case "Q1-Q12 equal the direct store" `Quick test_pool_equals_direct;
          qc prop_random_workload;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "readers never see a torn load" `Quick test_snapshot_isolation;
          Alcotest.test_case "epoch refresh after commit" `Quick test_epoch_refresh;
          Alcotest.test_case "reported epoch names the snapshot" `Quick
            test_epoch_names_snapshot;
        ] );
      ( "observability",
        [ Alcotest.test_case "concurrent scrapes lint clean" `Quick test_metrics_scrape_race ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reader failure leaks no permit" `Quick
            test_no_leak_on_reader_failure;
          qc prop_permits_conserved;
        ] );
    ]
