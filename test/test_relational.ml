(* Unit and property tests for the relational engine. *)

open Relstore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let value_testable =
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (Value.to_string v)) Value.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare () =
  check_bool "int eq" true (Value.equal (Value.Int 3) (Value.Int 3));
  check_bool "int/float numeric eq" true (Value.equal (Value.Int 3) (Value.Float 3.0));
  check_int "int lt" (-1) (compare (Value.compare (Value.Int 1) (Value.Int 2)) 0);
  check_bool "null sorts first" true (Value.compare Value.Null (Value.Int min_int) < 0);
  check_bool "text order" true (Value.compare (Value.Text "a") (Value.Text "b") < 0);
  check_bool "sql_compare null is none" true (Value.sql_compare Value.Null (Value.Int 1) = None)

let test_value_coerce () =
  Alcotest.check value_testable "text->int" (Value.Int 42) (Value.coerce Value.TInt (Value.Text "42"));
  Alcotest.check value_testable "int->float" (Value.Float 2.0) (Value.coerce Value.TFloat (Value.Int 2));
  Alcotest.check value_testable "int->text" (Value.Text "7") (Value.coerce Value.TText (Value.Int 7));
  Alcotest.check value_testable "null passes" Value.Null (Value.coerce Value.TInt Value.Null);
  Alcotest.check_raises "bad int" (Value.Type_error "cannot store \"xyz\" in an INTEGER column")
    (fun () -> ignore (Value.coerce Value.TInt (Value.Text "xyz")))

(* ------------------------------------------------------------------ *)
(* B+-tree *)

let key i = [| Value.Int i |]

let test_btree_basic () =
  let t = Btree.create () in
  for i = 0 to 999 do
    Btree.insert t (key ((i * 37) mod 1000)) i
  done;
  check_int "entries" 1000 (Btree.entry_count t);
  check_int "distinct" 1000 (Btree.distinct_keys t);
  check_bool "invariants" true (Btree.check_invariants t);
  (* 37 is coprime with 1000, so each key got exactly one posting *)
  check_int "lookup 0" 1 (List.length (Btree.lookup t (key 0)));
  check_int "lookup missing" 0 (List.length (Btree.lookup t (key 5000)))

let test_btree_duplicates () =
  let t = Btree.create () in
  for i = 0 to 99 do
    Btree.insert t (key (i mod 10)) i
  done;
  check_int "postings per key" 10 (List.length (Btree.lookup t (key 3)));
  Btree.remove t (key 3) 3;
  check_int "after remove" 9 (List.length (Btree.lookup t (key 3)));
  check_bool "invariants after remove" true (Btree.check_invariants t)

let test_btree_range () =
  let t = Btree.create () in
  for i = 1 to 500 do
    Btree.insert t (key i) i
  done;
  let hits =
    Btree.range t ~lower:(Btree.Inclusive (key 100)) ~upper:(Btree.Exclusive (key 110))
  in
  check_int "range size" 10 (List.length hits);
  (match hits with
  | (k, _) :: _ -> Alcotest.check value_testable "first key" (Value.Int 100) k.(0)
  | [] -> Alcotest.fail "empty range");
  check_int "height grows" 2 (min 2 (Btree.height t))

let test_btree_composite () =
  let t = Btree.create () in
  Btree.insert t [| Value.Text "a"; Value.Int 1 |] 1;
  Btree.insert t [| Value.Text "a"; Value.Int 2 |] 2;
  Btree.insert t [| Value.Text "b"; Value.Int 1 |] 3;
  let hits = ref [] in
  Btree.iter_prefix t [| Value.Text "a" |] (fun _ rowid -> hits := rowid :: !hits);
  check_int "prefix scan" 2 (List.length !hits)

(* Property: B+-tree agrees with a reference association model. *)
let btree_model_prop =
  QCheck.Test.make ~name:"btree agrees with model" ~count:200
    QCheck.(list (pair (int_range 0 100) (int_range 0 1000)))
    (fun ops ->
      let t = Btree.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, rowid) ->
          Btree.insert t (key k) rowid;
          Hashtbl.replace model k (rowid :: Option.value ~default:[] (Hashtbl.find_opt model k)))
        ops;
      Btree.check_invariants t
      && Hashtbl.fold
           (fun k expected acc ->
             acc && List.sort compare (Btree.lookup t (key k)) = List.sort compare expected)
           model true)

let btree_range_prop =
  QCheck.Test.make ~name:"btree range equals filtered model" ~count:200
    QCheck.(pair (list (int_range 0 200)) (pair (int_range 0 200) (int_range 0 200)))
    (fun (keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let t = Btree.create () in
      List.iteri (fun i k -> Btree.insert t (key k) i) keys;
      let got =
        Btree.range t ~lower:(Btree.Inclusive (key lo)) ~upper:(Btree.Inclusive (key hi))
        |> List.map (fun (k, _) -> match k.(0) with Value.Int i -> i | _ -> assert false)
        |> List.sort compare
      in
      let expected = List.filter (fun k -> k >= lo && k <= hi) keys |> List.sort compare in
      got = expected)

(* Full observational fingerprint of a tree: the ascending (key, rowid)
   sequence [iter] yields, postings in insertion order within each key. *)
let tree_entries t =
  let out = ref [] in
  Btree.iter t (fun k rowid -> out := (Array.to_list k, rowid) :: !out);
  List.rev !out

(* Stable sort by key keeps equal keys' row ids in insertion order —
   exactly the shape [bulk_of_sorted] documents. *)
let sorted_pairs keys =
  List.mapi (fun i k -> (key k, i)) keys
  |> List.stable_sort (fun (a, _) (b, _) -> Btree.compare_key a b)
  |> Array.of_list

(* Property: the bottom-up builder is observationally identical to
   repeated insert over duplicate-heavy key streams — same invariants,
   same counters, same full iteration, same lookups. *)
let btree_bulk_prop =
  QCheck.Test.make ~name:"bulk_of_sorted equals repeated insert" ~count:300
    QCheck.(list (int_range 0 30))
    (fun keys ->
      let reference = Btree.create () in
      List.iteri (fun i k -> Btree.insert reference (key k) i) keys;
      let bulk = Btree.bulk_of_sorted (sorted_pairs keys) in
      Btree.check_invariants bulk
      && Btree.entry_count bulk = Btree.entry_count reference
      && Btree.distinct_keys bulk = Btree.distinct_keys reference
      && tree_entries bulk = tree_entries reference
      && List.for_all (fun k -> Btree.lookup bulk (key k) = Btree.lookup reference (key k)) keys)

(* Property: merging a sorted batch of fresh (larger) row ids into a
   grown tree equals having kept inserting row-at-a-time. *)
let btree_bulk_merge_prop =
  QCheck.Test.make ~name:"bulk_merge equals continued inserts" ~count:300
    QCheck.(pair (list (int_range 0 20)) (list (int_range 0 20)))
    (fun (first, second) ->
      let reference = Btree.create () in
      List.iteri (fun i k -> Btree.insert reference (key k) i) (first @ second);
      let t = Btree.create () in
      List.iteri (fun i k -> Btree.insert t (key k) i) first;
      let base = List.length first in
      let batch =
        List.mapi (fun i k -> (key k, base + i)) second
        |> List.stable_sort (fun (a, _) (b, _) -> Btree.compare_key a b)
        |> Array.of_list
      in
      let merged = Btree.bulk_merge t batch in
      Btree.check_invariants merged && tree_entries merged = tree_entries reference)

(* ------------------------------------------------------------------ *)
(* Table *)

let people_schema =
  Schema.make "people"
    [
      Schema.column "id" ~nullable:false Value.TInt;
      Schema.column "name" Value.TText;
      Schema.column "age" Value.TInt;
    ]

let test_table_crud () =
  let t = Table.create people_schema in
  let r1 = Table.insert t [| Value.Int 1; Value.Text "ada"; Value.Int 36 |] in
  let _r2 = Table.insert t [| Value.Int 2; Value.Text "bob"; Value.Int 25 |] in
  check_int "rows" 2 (Table.row_count t);
  check_bool "delete" true (Table.delete t r1);
  check_int "rows after delete" 1 (Table.row_count t);
  check_bool "get deleted" true (Table.get t r1 = None);
  check_bool "double delete" false (Table.delete t r1)

let test_table_index_maintenance () =
  let t = Table.create people_schema in
  let ix = Table.create_index t ~index_name:"people_age" ~columns:[ "age" ] in
  let r1 = Table.insert t [| Value.Int 1; Value.Text "ada"; Value.Int 36 |] in
  let _ = Table.insert t [| Value.Int 2; Value.Text "bob"; Value.Int 36 |] in
  check_int "two with age 36" 2 (List.length (Btree.lookup ix.Table.tree [| Value.Int 36 |]));
  ignore (Table.update t r1 [| Value.Int 1; Value.Text "ada"; Value.Int 37 |]);
  check_int "one with age 36" 1 (List.length (Btree.lookup ix.Table.tree [| Value.Int 36 |]));
  check_int "one with age 37" 1 (List.length (Btree.lookup ix.Table.tree [| Value.Int 37 |]));
  ignore (Table.delete t r1);
  check_int "none with 37 after delete" 0 (List.length (Btree.lookup ix.Table.tree [| Value.Int 37 |]))

(* Property: a bulk load gives every index the exact observable state
   row-at-a-time maintenance would have. The four indexes steer the four
   grouping paths in [end_bulk]: a small-range INTEGER key (counting
   sort), an unsorted TEXT key (hash grouping), a TEXT key arriving in
   key order (adjacent-run grouping — how Dewey labels arrive), and a
   composite key (generic hash-and-sort fallback). *)
let table_bulk_prop =
  QCheck.Test.make ~name:"table bulk load equals row-at-a-time" ~count:100
    QCheck.(list (pair (int_range 0 40) (int_range 0 5)))
    (fun rows_spec ->
      let schema =
        Schema.make "t"
          [
            Schema.column "id" ~nullable:false Value.TInt;
            Schema.column "name" Value.TText;
            Schema.column "label" Value.TText;
          ]
      in
      let rows =
        List.mapi
          (fun i (v, c) ->
            [|
              Value.Int v;
              Value.Text (String.make 1 (Char.chr (Char.code 'a' + c)));
              Value.Text (Printf.sprintf "%05d" i);
            |])
          rows_spec
      in
      let build bulk =
        let t = Table.create schema in
        ignore (Table.create_index t ~index_name:"t_id" ~columns:[ "id" ]);
        ignore (Table.create_index t ~index_name:"t_name" ~columns:[ "name" ]);
        ignore (Table.create_index t ~index_name:"t_label" ~columns:[ "label" ]);
        ignore (Table.create_index t ~index_name:"t_comp" ~columns:[ "name"; "id" ]);
        if bulk then Table.begin_bulk t;
        List.iter (fun r -> ignore (Table.insert t r)) rows;
        if bulk then ignore (Table.end_bulk t);
        t
      in
      let a = build false and b = build true in
      List.for_all2
        (fun ia ib ->
          Btree.check_invariants ib.Table.tree
          && tree_entries ia.Table.tree = tree_entries ib.Table.tree)
        (Table.indexes a) (Table.indexes b))

let test_table_bulk_guards () =
  let t = Table.create people_schema in
  ignore (Table.create_index t ~index_name:"people_age" ~columns:[ "age" ]);
  let r0 = Table.insert t [| Value.Int 1; Value.Text "ada"; Value.Int 36 |] in
  Table.begin_bulk t;
  ignore (Table.insert t [| Value.Int 2; Value.Text "bob"; Value.Int 25 |]);
  Alcotest.check_raises "delete rejected mid-bulk"
    (Table.Index_error "people: DELETE during an active bulk load") (fun () ->
      ignore (Table.delete t r0));
  Alcotest.check_raises "update rejected mid-bulk"
    (Table.Index_error "people: UPDATE during an active bulk load") (fun () ->
      ignore (Table.update t r0 [| Value.Int 1; Value.Text "ada"; Value.Int 37 |]));
  Alcotest.check_raises "nested bulk rejected"
    (Table.Index_error "people: bulk load already active") (fun () -> Table.begin_bulk t);
  check_int "end_bulk counts the appended rows" 1 (Table.end_bulk t);
  check_int "end_bulk is a no-op when closed" 0 (Table.end_bulk t)

let test_table_bulk_abort () =
  let t = Table.create people_schema in
  ignore (Table.create_index t ~index_name:"people_age" ~columns:[ "age" ]);
  ignore (Table.insert t [| Value.Int 1; Value.Text "ada"; Value.Int 36 |]);
  Table.begin_bulk t;
  ignore (Table.insert t [| Value.Int 2; Value.Text "bob"; Value.Int 25 |]);
  ignore (Table.insert t [| Value.Int 3; Value.Text "cyd"; Value.Int 25 |]);
  check_int "abort drops the appended range" 2 (Table.abort_bulk t);
  check_int "pre-bulk rows survive" 1 (Table.row_count t);
  let ix = List.hd (Table.indexes t) in
  check_int "index holds only pre-bulk entries" 1 (Btree.entry_count ix.Table.tree);
  check_int "aborted rows never indexed" 0
    (List.length (Btree.lookup ix.Table.tree [| Value.Int 25 |]))

(* Mutations after a finished bulk load see fully consistent indexes —
   the deferred build must leave nothing for later updates to trip on. *)
let test_table_mutations_after_bulk () =
  let t = Table.create people_schema in
  ignore (Table.create_index t ~index_name:"people_age" ~columns:[ "age" ]);
  Table.begin_bulk t;
  let r2 = Table.insert t [| Value.Int 2; Value.Text "bob"; Value.Int 25 |] in
  let r3 = Table.insert t [| Value.Int 3; Value.Text "cyd"; Value.Int 25 |] in
  ignore (Table.end_bulk t);
  let tree () = (List.hd (Table.indexes t)).Table.tree in
  check_int "both at 25" 2 (List.length (Btree.lookup (tree ()) [| Value.Int 25 |]));
  ignore (Table.update t r2 [| Value.Int 2; Value.Text "bob"; Value.Int 30 |]);
  check_bool "update moved the posting" true
    (Btree.lookup (tree ()) [| Value.Int 30 |] = [ r2 ]
    && Btree.lookup (tree ()) [| Value.Int 25 |] = [ r3 ]);
  ignore (Table.delete t r3);
  check_int "delete removed the posting" 0
    (List.length (Btree.lookup (tree ()) [| Value.Int 25 |]));
  check_bool "invariants hold" true (Btree.check_invariants (tree ()))

let test_table_not_null () =
  let t = Table.create people_schema in
  Alcotest.check_raises "null id rejected"
    (Schema.Schema_error "column people.id is NOT NULL") (fun () ->
      ignore (Table.insert t [| Value.Null; Value.Text "x"; Value.Int 1 |]))

(* ------------------------------------------------------------------ *)
(* SQL end to end *)

let db_with_people () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE people (id INTEGER NOT NULL, name TEXT, age INTEGER, city TEXT)");
  ignore
    (Database.exec db
       "INSERT INTO people (id, name, age, city) VALUES (1, 'ada', 36, 'london'), (2, 'bob', \
        25, 'paris'), (3, 'cyd', 36, 'london'), (4, 'dan', NULL, 'rome')");
  db

let rows db sql = (Database.query db sql).Executor.rows

(* ------------------------------------------------------------------ *)
(* Bulk-load sessions *)

let nums_setup db =
  ignore (Database.exec db "CREATE TABLE nums (n INTEGER NOT NULL, tag TEXT)");
  ignore (Database.exec db "CREATE INDEX nums_n ON nums (n)")

(* A finished session answers SQL exactly like a row-at-a-time load. *)
let test_db_session_equivalence () =
  let row_db = Database.create () in
  nums_setup row_db;
  for i = 0 to 99 do
    ignore
      (Database.exec row_db
         (Printf.sprintf "INSERT INTO nums (n, tag) VALUES (%d, 't%d')" (i mod 7) (i mod 3)))
  done;
  let bulk_db = Database.create () in
  nums_setup bulk_db;
  Database.with_session bulk_db (fun s ->
      for i = 0 to 99 do
        Database.session_insert s "nums"
          [| Value.Int (i mod 7); Value.Text (Printf.sprintf "t%d" (i mod 3)) |]
      done);
  List.iter
    (fun sql -> check_bool sql true (rows row_db sql = rows bulk_db sql))
    [
      "SELECT count(*) FROM nums";
      "SELECT tag, count(*) FROM nums WHERE n = 3 GROUP BY tag ORDER BY tag";
      "SELECT n FROM nums WHERE n >= 5 ORDER BY n, tag";
    ]

let test_db_session_abort () =
  let db = Database.create () in
  nums_setup db;
  ignore (Database.exec db "INSERT INTO nums (n, tag) VALUES (1, 'keep')");
  let s = Database.load_session db in
  Database.insert_rows s "nums" [ [| Value.Int 2; Value.Null |]; [| Value.Int 3; Value.Null |] ];
  Database.abort_session s;
  check_bool "pre-session rows survive the abort" true
    (rows db "SELECT n, tag FROM nums" = [ [| Value.Int 1; Value.Text "keep" |] ]);
  check_int "finishing an aborted session is a no-op" 0 (Database.finish_session s);
  Alcotest.check_raises "inserts after abort rejected"
    (Database.Db_error "bulk-load session is already closed") (fun () ->
      Database.session_insert s "nums" [| Value.Int 4; Value.Null |])

(* A table dropped and recreated mid-session must not swallow rows into
   the detached copy, even when the caller re-emits through the very same
   name string (the session memoizes name resolutions by physical
   string — DDL has to invalidate that memo). *)
let test_db_session_ddl () =
  let db = Database.create () in
  nums_setup db;
  let name = "nums" in
  let s = Database.load_session db in
  Database.session_insert s name [| Value.Int 1; Value.Null |];
  ignore (Database.exec db "DROP TABLE nums");
  nums_setup db;
  Database.session_insert s name [| Value.Int 2; Value.Null |];
  ignore (Database.finish_session s);
  check_bool "only the re-created table's row is visible" true
    (rows db "SELECT n FROM nums" = [ [| Value.Int 2 |] ])

let test_sql_select_where () =
  let db = db_with_people () in
  check_int "age filter" 2 (List.length (rows db "SELECT name FROM people WHERE age = 36"));
  check_int "and" 1
    (List.length (rows db "SELECT name FROM people WHERE age = 36 AND name = 'ada'"));
  check_int "or" 3
    (List.length (rows db "SELECT name FROM people WHERE age = 36 OR name = 'bob'"));
  check_int "null comparison excludes" 0
    (List.length (rows db "SELECT name FROM people WHERE age <> 25 AND age <> 36"));
  check_int "is null" 1 (List.length (rows db "SELECT name FROM people WHERE age IS NULL"));
  check_int "is not null" 3 (List.length (rows db "SELECT name FROM people WHERE age IS NOT NULL"))

let test_sql_expressions () =
  let db = db_with_people () in
  (match rows db "SELECT age + 1 FROM people WHERE name = 'ada'" with
  | [ [| v |] ] -> Alcotest.check value_testable "age+1" (Value.Int 37) v
  | _ -> Alcotest.fail "expected one row");
  (match rows db "SELECT name || '!' FROM people WHERE id = 2" with
  | [ [| v |] ] -> Alcotest.check value_testable "concat" (Value.Text "bob!") v
  | _ -> Alcotest.fail "expected one row");
  (match rows db "SELECT upper(name) FROM people WHERE id = 1" with
  | [ [| v |] ] -> Alcotest.check value_testable "upper" (Value.Text "ADA") v
  | _ -> Alcotest.fail "expected one row");
  check_int "like" 1 (List.length (rows db "SELECT name FROM people WHERE name LIKE 'a%'"));
  check_int "in list" 2 (List.length (rows db "SELECT name FROM people WHERE name IN ('ada', 'bob')"));
  check_int "between" 2 (List.length (rows db "SELECT name FROM people WHERE age BETWEEN 30 AND 40"))

let test_sql_order_limit () =
  let db = db_with_people () in
  let got = rows db "SELECT name FROM people WHERE age IS NOT NULL ORDER BY age DESC, name" in
  let names = List.map (fun r -> Value.to_string r.(0)) got in
  Alcotest.(check (list string)) "order" [ "ada"; "cyd"; "bob" ] names;
  check_int "limit" 2 (List.length (rows db "SELECT name FROM people ORDER BY id LIMIT 2"))

let test_sql_aggregates () =
  let db = db_with_people () in
  (match rows db "SELECT count(*), count(age), min(age), max(age), avg(age) FROM people" with
  | [ [| c; ca; mn; mx; av |] ] ->
    Alcotest.check value_testable "count*" (Value.Int 4) c;
    Alcotest.check value_testable "count age" (Value.Int 3) ca;
    Alcotest.check value_testable "min" (Value.Int 25) mn;
    Alcotest.check value_testable "max" (Value.Int 36) mx;
    (match av with
    | Value.Float f -> check_bool "avg" true (Float.abs (f -. 97.0 /. 3.0) < 1e-9)
    | _ -> Alcotest.fail "avg not float")
  | _ -> Alcotest.fail "expected one row");
  let got = rows db "SELECT city, count(*) FROM people GROUP BY city ORDER BY city" in
  let render = List.map (fun r -> Printf.sprintf "%s:%s" (Value.to_string r.(0)) (Value.to_string r.(1))) got in
  Alcotest.(check (list string)) "group" [ "london:2"; "paris:1"; "rome:1" ] render;
  check_int "having" 1
    (List.length (rows db "SELECT city FROM people GROUP BY city HAVING count(*) > 1"));
  (match rows db "SELECT count(*) FROM people WHERE age > 100" with
  | [ [| c |] ] -> Alcotest.check value_testable "empty count" (Value.Int 0) c
  | _ -> Alcotest.fail "expected one row")

let test_sql_join () =
  let db = db_with_people () in
  ignore (Database.exec db "CREATE TABLE cities (cname TEXT, country TEXT)");
  ignore
    (Database.exec db
       "INSERT INTO cities VALUES ('london', 'uk'), ('paris', 'fr'), ('rome', 'it')");
  let got =
    rows db
      "SELECT p.name, c.country FROM people p, cities c WHERE p.city = c.cname AND p.age = 36 \
       ORDER BY p.name"
  in
  check_int "join rows" 2 (List.length got);
  (match got with
  | [| n; c |] :: _ ->
    check_string "name" "ada" (Value.to_string n);
    check_string "country" "uk" (Value.to_string c)
  | _ -> Alcotest.fail "bad join result");
  (* explicit JOIN ... ON syntax *)
  let got2 =
    rows db "SELECT p.name FROM people p JOIN cities c ON p.city = c.cname WHERE c.country = 'fr'"
  in
  check_int "join..on" 1 (List.length got2)

let test_sql_self_join () =
  let db = db_with_people () in
  let got =
    rows db
      "SELECT a.name, b.name FROM people a, people b WHERE a.city = b.city AND a.id < b.id"
  in
  check_int "same-city pairs" 1 (List.length got)

let test_sql_union_distinct () =
  let db = db_with_people () in
  check_int "union all" 8
    (List.length (rows db "SELECT name FROM people UNION ALL SELECT name FROM people"));
  check_int "distinct cities" 3 (List.length (rows db "SELECT DISTINCT city FROM people"))

let test_sql_update_delete () =
  let db = db_with_people () in
  (match Database.exec db "UPDATE people SET age = 26 WHERE name = 'bob'" with
  | Database.Affected 1 -> ()
  | _ -> Alcotest.fail "update affected");
  (match rows db "SELECT age FROM people WHERE name = 'bob'" with
  | [ [| v |] ] -> Alcotest.check value_testable "updated" (Value.Int 26) v
  | _ -> Alcotest.fail "one row");
  (match Database.exec db "DELETE FROM people WHERE city = 'london'" with
  | Database.Affected 2 -> ()
  | _ -> Alcotest.fail "delete affected");
  check_int "remaining" 2 (List.length (rows db "SELECT id FROM people"))

let test_sql_index_scan_used () =
  let db = db_with_people () in
  ignore (Database.exec db "CREATE INDEX people_name ON people (name)");
  let plan = Database.plan_of db "SELECT age FROM people WHERE name = 'ada'" in
  check_int "uses index" 1 (Plan.count_index_scans plan);
  (* same result either way *)
  check_int "index result" 1 (List.length (rows db "SELECT age FROM people WHERE name = 'ada'"));
  let plan2 = Database.plan_of db "SELECT age FROM people WHERE age = 36" in
  check_int "no index on age" 0 (Plan.count_index_scans plan2)

let test_sql_index_range () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE nums (n INTEGER)");
  for i = 1 to 200 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO nums VALUES (%d)" i))
  done;
  ignore (Database.exec db "CREATE INDEX nums_n ON nums (n)");
  check_int "range via index" 50
    (List.length (rows db "SELECT n FROM nums WHERE n > 100 AND n <= 150"));
  check_int "like prefix" 1 (List.length (rows db "SELECT n FROM nums WHERE n = 7"))

let test_sql_errors () =
  let db = db_with_people () in
  let expect_failure name sql =
    match Database.exec db sql with
    | exception _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected an error")
  in
  expect_failure "unknown table" "SELECT * FROM nosuch";
  expect_failure "unknown column" "SELECT nosuch FROM people";
  expect_failure "ambiguous column" "SELECT name FROM people a, people b";
  expect_failure "syntax" "SELECT FROM WHERE";
  expect_failure "duplicate table" "CREATE TABLE people (x INTEGER)"

let test_sql_roundtrip_print () =
  (* parse -> print -> parse is stable *)
  let sqls =
    [
      "SELECT a.x, b.y AS z FROM t a, u b WHERE a.k = b.k AND a.x > 3 ORDER BY b.y DESC LIMIT 5";
      "SELECT DISTINCT name FROM people WHERE name LIKE 'a%' OR age IN (1, 2, 3)";
      "SELECT city, count(*) FROM people GROUP BY city HAVING count(*) > 1";
    ]
  in
  List.iter
    (fun sql ->
      let printed = Sql_ast.statement_to_string (Sql_parser.parse_statement sql) in
      let reprinted = Sql_ast.statement_to_string (Sql_parser.parse_statement printed) in
      check_string sql printed reprinted)
    sqls

let test_render_result () =
  let db = db_with_people () in
  let r = Database.query db "SELECT name, age FROM people WHERE id = 1" in
  let s = Database.render_result r in
  check_bool "header present" true (String.length s > 0 && String.sub s 0 4 = "name")

(* ------------------------------------------------------------------ *)
(* Expression semantics *)

let scalar db sql =
  match (Database.query db sql).Executor.rows with
  | [ [| v |] ] -> v
  | _ -> Alcotest.fail ("expected a single value from " ^ sql)

let test_like_matcher () =
  let cases =
    [
      ("abc", "abc", true); ("a%", "abc", true); ("%c", "abc", true); ("%b%", "abc", true);
      ("a_c", "abc", true); ("a_c", "abbc", false); ("%", "", true); ("_", "", false);
      ("a%z", "az", true); ("a%z", "abcz", true); ("a%z", "abcy", false);
      ("%%", "anything", true); ("a__", "abc", true); ("a__", "ab", false);
    ]
  in
  List.iter
    (fun (pattern, s, expected) ->
      check_bool
        (Printf.sprintf "LIKE %S on %S" pattern s)
        expected
        (Expr_eval.like_match ~pattern s))
    cases

let test_three_valued_logic () =
  let db = db_with_people () in
  (* dan's age is NULL: NULL-involved comparisons are unknown, and WHERE
     treats unknown as false *)
  check_int "null = null not true" 0
    (List.length (rows db "SELECT name FROM people WHERE age = age AND name = 'dan'"));
  (* Kleene: FALSE AND NULL = FALSE (row rejected), TRUE OR NULL = TRUE *)
  check_int "true or null" 1
    (List.length (rows db "SELECT name FROM people WHERE name = 'dan' OR age > 100"));
  check_int "not null is unknown" 0
    (List.length (rows db "SELECT name FROM people WHERE NOT (age = 36) AND name = 'dan'"));
  check_int "is null picks dan" 1
    (List.length (rows db "SELECT name FROM people WHERE age IS NULL"))

let test_scalar_functions () =
  let db = db_with_people () in
  Alcotest.check value_testable "coalesce" (Value.Int 0)
    (scalar db "SELECT coalesce(age, 0) FROM people WHERE name = 'dan'");
  Alcotest.check value_testable "nullif" Value.Null
    (scalar db "SELECT nullif(name, 'ada') FROM people WHERE id = 1");
  Alcotest.check value_testable "substr" (Value.Text "da")
    (scalar db "SELECT substr(name, 2) FROM people WHERE id = 1");
  Alcotest.check value_testable "substr len" (Value.Text "d")
    (scalar db "SELECT substr(name, 2, 1) FROM people WHERE id = 1");
  Alcotest.check value_testable "length" (Value.Int 3)
    (scalar db "SELECT length(name) FROM people WHERE id = 1");
  Alcotest.check value_testable "instr" (Value.Int 2)
    (scalar db "SELECT instr(name, 'da') FROM people WHERE id = 1");
  Alcotest.check value_testable "to_number bad text is null" Value.Null
    (scalar db "SELECT to_number(name) FROM people WHERE id = 1");
  Alcotest.check value_testable "to_number good"
    (Value.Float 12.0)
    (scalar db "SELECT to_number('12') FROM people WHERE id = 1");
  Alcotest.check value_testable "abs" (Value.Int 5) (scalar db "SELECT abs(0 - 5) FROM people WHERE id = 1")

let test_arithmetic_semantics () =
  let db = db_with_people () in
  Alcotest.check value_testable "int division truncates" (Value.Int 3)
    (scalar db "SELECT 7 / 2 FROM people WHERE id = 1");
  Alcotest.check value_testable "mod" (Value.Int 1)
    (scalar db "SELECT 7 % 2 FROM people WHERE id = 1");
  Alcotest.check value_testable "mixed is float" (Value.Float 3.5)
    (scalar db "SELECT 7 / 2.0 FROM people WHERE id = 1");
  Alcotest.check value_testable "null propagates" Value.Null
    (scalar db "SELECT age + 1 FROM people WHERE name = 'dan'");
  Alcotest.check value_testable "unary minus" (Value.Int (-36))
    (scalar db "SELECT -age FROM people WHERE id = 1");
  (match Database.query db "SELECT 1 / 0 FROM people WHERE id = 1" with
  | exception Expr_eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "division by zero should raise")

let test_aggregate_distinct () =
  let db = db_with_people () in
  Alcotest.check value_testable "count distinct cities" (Value.Int 3)
    (scalar db "SELECT count(DISTINCT city) FROM people");
  Alcotest.check value_testable "count distinct ages" (Value.Int 2)
    (scalar db "SELECT count(DISTINCT age) FROM people");
  Alcotest.check value_testable "sum distinct" (Value.Int 61)
    (scalar db "SELECT sum(DISTINCT age) FROM people");
  Alcotest.check value_testable "min text" (Value.Text "ada")
    (scalar db "SELECT min(name) FROM people");
  (* sum mixing int rows only stays Int *)
  Alcotest.check value_testable "sum is int" (Value.Int 97) (scalar db "SELECT sum(age) FROM people")

let test_group_by_expression () =
  let db = db_with_people () in
  let got = rows db "SELECT length(city), count(*) FROM people GROUP BY length(city) ORDER BY length(city)" in
  let render = List.map (fun r -> Value.to_string r.(0) ^ ":" ^ Value.to_string r.(1)) got in
  Alcotest.(check (list string)) "group by expr" [ "4:1"; "5:1"; "6:2" ] render

let test_order_by_alias () =
  let db = db_with_people () in
  let got = rows db "SELECT name, age * 2 AS dbl FROM people WHERE age IS NOT NULL ORDER BY dbl" in
  Alcotest.(check (list string)) "alias in order by" [ "bob"; "ada"; "cyd" ]
    (List.map (fun r -> Value.to_string r.(0)) got)

let test_quoted_identifiers_and_comments () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (\"select\" INTEGER) -- keyword column\n");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (2)");
  check_int "quoted column works" 2 (List.length (rows db "SELECT \"select\" FROM t"));
  check_int "filter on quoted" 1 (List.length (rows db "SELECT \"select\" FROM t WHERE \"select\" = 2"))

let test_insert_column_subset () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INTEGER, b TEXT, c REAL)");
  ignore (Database.exec db "INSERT INTO t (b) VALUES ('only-b')");
  match rows db "SELECT a, b, c FROM t" with
  | [ [| a; b; c |] ] ->
    Alcotest.check value_testable "a null" Value.Null a;
    Alcotest.check value_testable "b set" (Value.Text "only-b") b;
    Alcotest.check value_testable "c null" Value.Null c
  | _ -> Alcotest.fail "one row expected"

let test_update_expression () =
  let db = db_with_people () in
  ignore (Database.exec db "UPDATE people SET age = age + 10 WHERE age IS NOT NULL");
  Alcotest.check value_testable "ada aged" (Value.Int 46)
    (scalar db "SELECT age FROM people WHERE name = 'ada'");
  Alcotest.check value_testable "dan still null" Value.Null
    (scalar db "SELECT age FROM people WHERE name = 'dan'")

let test_in_list_index_probes () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
  for i = 1 to 100 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  ignore (Database.exec db "CREATE INDEX t_v ON t (v)");
  let plan = Database.plan_of db "SELECT v FROM t WHERE v IN (3, 7, 11)" in
  let s = Plan.to_string plan in
  check_bool "IndexProbes chosen" true
    (String.length s >= 11
    &&
    let rec find i = i + 11 <= String.length s && (String.sub s i 11 = "IndexProbes" || find (i + 1)) in
    find 0);
  check_int "in-list results" 3 (List.length (rows db "SELECT v FROM t WHERE v IN (3, 7, 11)"));
  (* duplicates in the probe list must not duplicate results *)
  check_int "dup probes" 1 (List.length (rows db "SELECT v FROM t WHERE v IN (5, 5, 5)"))

let test_between_index_range () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
  for i = 1 to 100 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  ignore (Database.exec db "CREATE INDEX t_v ON t (v)");
  check_int "between via index" 11 (List.length (rows db "SELECT v FROM t WHERE v BETWEEN 20 AND 30"));
  (* merged one-sided bounds become a single bounded scan *)
  let plan = Database.plan_of db "SELECT v FROM t WHERE v > 10 AND v <= 20" in
  check_bool "no residual filter" true
    (not (String.length (Plan.to_string plan) > 0 && String.sub (Plan.to_string plan) 0 6 = "Filter"))

let test_like_prefix_index () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (s TEXT)");
  List.iter
    (fun s -> ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES ('%s')" s)))
    [ "apple"; "apricot"; "banana"; "avocado"; "applet" ];
  ignore (Database.exec db "CREATE INDEX t_s ON t (s)");
  check_int "prefix like" 2 (List.length (rows db "SELECT s FROM t WHERE s LIKE 'app%'"));
  check_int "non-prefix like full scan" 2 (List.length (rows db "SELECT s FROM t WHERE s LIKE '%cot%' OR s LIKE '%cado'"))

let test_like_prefix_successor () =
  let check_opt = Alcotest.(check (option string)) in
  let s = Planner.like_prefix_successor in
  check_opt "increments the last byte" (Some "ac") (s "ab");
  check_opt "single byte" (Some "b") (s "a");
  check_opt "drops trailing 0xff then increments" (Some "b") (s "a\xff\xff");
  check_opt "all 0xff has no finite upper bound" None (s "\xff\xff");
  check_opt "empty prefix has no finite upper bound" None (s "")

(* Regression: the prefix-LIKE index range upper bound used to be
   [prefix ^ "\xff"], which excludes stored values whose suffix begins with
   a 0xff byte ("ab\xff" > "ab\xff" is false, but "ab\xffz" > "ab\xff"
   compares past the bound). The proper bound is the prefix's successor
   string. *)
let test_like_high_byte_range () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (s TEXT)");
  List.iter
    (fun s -> Database.insert_row_array db "t" [| Value.Text s |])
    [ "ab"; "ab\xff"; "ab\xffz"; "abc"; "b" ];
  ignore (Database.exec db "CREATE INDEX t_s ON t (s)");
  let q = "SELECT s FROM t WHERE s LIKE 'ab%'" in
  check_int "prefix LIKE uses the index" 1 (Plan.count_index_scans (Database.plan_of db q));
  check_int "values with 0xff suffixes included" 4 (List.length (rows db q));
  (* prefix that itself ends in 0xff: successor drops it and increments *)
  check_int "high-byte prefix" 2 (List.length (rows db "SELECT s FROM t WHERE s LIKE 'ab\xff%'"));
  (* all-0xff prefix: open-ended range, still answered correctly *)
  ignore (Database.exec db "INSERT INTO t VALUES ('\xff\xffq')");
  check_int "all-0xff prefix" 1 (List.length (rows db "SELECT s FROM t WHERE s LIKE '\xff\xff%'"))

let test_sql_corner_cases () =
  let db = db_with_people () in
  check_int "limit 0" 0 (List.length (rows db "SELECT name FROM people LIMIT 0"));
  check_int "order by on empty" 0
    (List.length (rows db "SELECT name FROM people WHERE id > 99 ORDER BY name"));
  (* NULL forms its own group *)
  let got = rows db "SELECT age, count(*) FROM people GROUP BY age ORDER BY age" in
  check_int "null group present" 3 (List.length got);
  (match got with
  | [| Value.Null; Value.Int 1 |] :: _ -> ()
  | _ -> Alcotest.fail "null group should sort first");
  (* HAVING without aggregates in projection *)
  check_int "having on group column" 1
    (List.length (rows db "SELECT city FROM people GROUP BY city HAVING city = 'rome'"));
  (* aggregate over empty group-by-less input *)
  (match rows db "SELECT sum(age), avg(age), min(age) FROM people WHERE id > 99" with
  | [ [| s; a; m |] ] ->
    Alcotest.check value_testable "sum empty" Value.Null s;
    Alcotest.check value_testable "avg empty" Value.Null a;
    Alcotest.check value_testable "min empty" Value.Null m
  | _ -> Alcotest.fail "one row");
  (* DISTINCT keeps first occurrence order *)
  let got = rows db "SELECT DISTINCT city FROM people" in
  Alcotest.(check (list string)) "distinct order" [ "london"; "paris"; "rome" ]
    (List.map (fun r -> Value.to_string r.(0)) got)

let test_btree_scale () =
  let t = Btree.create () in
  for i = 1 to 20_000 do
    Btree.insert t [| Value.Int ((i * 7919) mod 20011) |] i
  done;
  check_int "entries" 20_000 (Btree.entry_count t);
  check_bool "height reasonable" true (Btree.height t <= 5);
  check_bool "invariants at scale" true (Btree.check_invariants t);
  (* empty range when bounds cross *)
  check_int "inverted range" 0
    (List.length
       (Btree.range t ~lower:(Btree.Inclusive [| Value.Int 100 |])
          ~upper:(Btree.Inclusive [| Value.Int 50 |])))

let test_column_stats () =
  let db = db_with_people () in
  let st = Database.analyze db "people" in
  check_int "rows" 4 st.Stats.ts_rows;
  (* columns: id, name, age, city *)
  check_int "distinct ids" 4 st.Stats.ts_columns.(0).Stats.cs_distinct;
  check_int "distinct ages" 2 st.Stats.ts_columns.(2).Stats.cs_distinct;
  check_int "age nulls" 1 st.Stats.ts_columns.(2).Stats.cs_nulls;
  Alcotest.check value_testable "min age" (Value.Int 25) st.Stats.ts_columns.(2).Stats.cs_min;
  Alcotest.check value_testable "max age" (Value.Int 36) st.Stats.ts_columns.(2).Stats.cs_max;
  check_int "distinct cities" 3 st.Stats.ts_columns.(3).Stats.cs_distinct;
  check_bool "eq selectivity city" true
    (Float.abs (Stats.eq_selectivity st ~column:3 -. (1.0 /. 3.0)) < 1e-9);
  check_bool "printable" true (String.length (Database.analyze_to_string db "people") > 0)

let test_stats_refresh_on_drift () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (2)");
  let st1 = Database.analyze db "t" in
  check_int "initial rows" 2 st1.Stats.ts_rows;
  (* small drift keeps the cache; big drift refreshes *)
  for i = 3 to 50 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  let st2 = Database.analyze db "t" in
  check_int "refreshed rows" 50 st2.Stats.ts_rows;
  check_int "refreshed distinct" 50 st2.Stats.ts_columns.(0).Stats.cs_distinct

let test_stats_drive_join_order () =
  (* with statistics, the planner starts the join from the table whose
     filtered estimate is smallest, i.e. the one with more distinct values
     for the same predicate shape *)
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE lowcard (k INTEGER, tag TEXT)");
  ignore (Database.exec db "CREATE TABLE highcard (k INTEGER, uniq TEXT)");
  for i = 1 to 100 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO lowcard VALUES (%d, 'tag%d')" i (i mod 2)));
    ignore
      (Database.exec db (Printf.sprintf "INSERT INTO highcard VALUES (%d, 'u%d')" i i))
  done;
  let plan =
    Database.plan_of db
      "SELECT l.k FROM lowcard l, highcard h WHERE l.k = h.k AND l.tag = 'tag1' AND h.uniq = \
       'u5'"
  in
  (* highcard's equality keeps ~1 row (1/100) vs lowcard's ~50 (1/2):
     highcard must be the probe (appears first under the hash join) *)
  let s = Plan.to_string plan in
  let idx sub =
    let n = String.length sub in
    let rec go i = if i + n > String.length s then -1 else if String.sub s i n = sub then i else go (i + 1) in
    go 0
  in
  check_bool "both scanned" true (idx "highcard" >= 0 && idx "lowcard" >= 0);
  check_bool "highcard drives the join" true (idx "highcard" < idx "lowcard")

let test_stats_pick_selective_index () =
  (* both columns are indexed and both have equality predicates; the
     planner must probe the high-cardinality one *)
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (coarse TEXT, fine TEXT)");
  for i = 1 to 200 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO t VALUES ('c%d', 'f%d')" (i mod 2) i))
  done;
  ignore (Database.exec db "CREATE INDEX t_coarse ON t (coarse)");
  ignore (Database.exec db "CREATE INDEX t_fine ON t (fine)");
  let plan = Database.plan_of db "SELECT fine FROM t WHERE coarse = 'c1' AND fine = 'f7'" in
  let s = Plan.to_string plan in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "probes the fine index" true (contains "USING t_fine");
  check_int "one result" 1
    (List.length (rows db "SELECT fine FROM t WHERE coarse = 'c1' AND fine = 'f7'"))

let test_dump_restore () =
  let db = db_with_people () in
  ignore (Database.exec db "CREATE INDEX people_name ON people (name)");
  let script = Database.dump db in
  let db2 = Database.restore script in
  (* identical contents *)
  let all d = rows d "SELECT id, name, age, city FROM people ORDER BY id" in
  check_bool "rows equal" true (all db = all db2);
  (* indexes survive and are usable *)
  let plan = Database.plan_of db2 "SELECT age FROM people WHERE name = 'ada'" in
  check_int "restored index used" 1 (Plan.count_index_scans plan);
  (* NULL round-trips *)
  Alcotest.check value_testable "null age survives" Value.Null
    (scalar db2 "SELECT age FROM people WHERE name = 'dan'");
  (* strings with quotes round-trip *)
  ignore (Database.exec db "INSERT INTO people VALUES (9, 'o''brien', 1, 'x''y')");
  let db3 = Database.restore (Database.dump db) in
  Alcotest.check value_testable "quoted text survives" (Value.Text "o'brien")
    (scalar db3 "SELECT name FROM people WHERE id = 9")

let test_vec () =
  let v = Vec.create ~dummy:0 in
  check_int "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    check_int "push index" i (Vec.push v (i * i))
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 81 (Vec.get v 9);
  Vec.set v 9 (-1);
  check_int "set" (-1) (Vec.get v 9);
  check_int "fold" (List.length (Vec.to_list v)) 100;
  (match Vec.get v 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range get accepted")

let test_union_all_order () =
  let db = db_with_people () in
  let got =
    rows db
      "SELECT name FROM people WHERE city = 'london' ORDER BY name UNION ALL SELECT name FROM \
       people WHERE city = 'paris'"
  in
  Alcotest.(check (list string)) "union keeps member order" [ "ada"; "cyd"; "bob" ]
    (List.map (fun r -> Value.to_string r.(0)) got)

(* ------------------------------------------------------------------ *)
(* Property: random single-table SELECTs agree with an OCaml-side
   reference implementation (filter + sort + project done by hand). *)

type ref_row = { rr_id : int; rr_grp : int; rr_val : int option }

let sql_fuzz_prop =
  let open QCheck in
  let gen_rows =
    Gen.(
      list_size (int_range 0 40)
        (let* grp = int_range 0 4 in
         let* has_val = frequency [ (4, return true); (1, return false) ] in
         let* v = int_range 0 20 in
         return (grp, if has_val then Some v else None)))
  in
  let gen_query =
    Gen.(
      let* lo = int_range 0 20 in
      let* op = oneofl [ `Gt; `Le; `Eq; `None ] in
      let* desc = bool in
      return (lo, op, desc))
  in
  Test.make ~name:"random SELECT matches reference implementation" ~count:300
    (make
       ~print:(fun (rows, (lo, _, desc)) ->
         Printf.sprintf "%d rows, bound %d, desc %b" (List.length rows) lo desc)
       Gen.(pair gen_rows gen_query))
    (fun (raw_rows, (lo, op, desc)) ->
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE t (id INTEGER, grp INTEGER, val INTEGER)");
      let reference =
        List.mapi
          (fun i (grp, v) ->
            ignore
              (Database.exec db
                 (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %s)" i grp
                    (match v with Some v -> string_of_int v | None -> "NULL")));
            { rr_id = i; rr_grp = grp; rr_val = v })
          raw_rows
      in
      let cond_sql, cond_ref =
        match op with
        | `Gt -> (Printf.sprintf " WHERE val > %d" lo, fun r -> match r.rr_val with Some v -> v > lo | None -> false)
        | `Le -> (Printf.sprintf " WHERE val <= %d" lo, fun r -> match r.rr_val with Some v -> v <= lo | None -> false)
        | `Eq -> (Printf.sprintf " WHERE grp = %d" (lo mod 5), fun r -> r.rr_grp = lo mod 5)
        | `None -> ("", fun _ -> true)
      in
      let order = if desc then " ORDER BY id DESC" else " ORDER BY id" in
      (* projection query *)
      let got =
        List.map
          (fun r -> match r.(0) with Value.Int i -> i | _ -> -1)
          (rows db ("SELECT id FROM t" ^ cond_sql ^ order))
      in
      let expected =
        reference |> List.filter cond_ref
        |> List.map (fun r -> r.rr_id)
        |> fun l -> if desc then List.rev l else l
      in
      (* aggregate query *)
      let agg_got =
        match rows db ("SELECT count(*), sum(val) FROM t" ^ cond_sql) with
        | [ [| Value.Int c; s |] ] ->
          (c, match s with Value.Int v -> Some v | _ -> None)
        | _ -> (-1, None)
      in
      let kept = List.filter cond_ref reference in
      let vals = List.filter_map (fun r -> r.rr_val) kept in
      let agg_expected =
        (List.length kept, if vals = [] then None else Some (List.fold_left ( + ) 0 vals))
      in
      got = expected && agg_got = agg_expected)

(* Property: WHERE pushdown and index scans never change results. *)
let index_equivalence_prop =
  QCheck.Test.make ~name:"index scan equals seq scan" ~count:50
    QCheck.(pair (list (int_range 0 50)) (int_range 0 50))
    (fun (values, probe) ->
      let mk with_index =
        let db = Database.create () in
        ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
        List.iter (fun v -> Database.insert_row_array db "t" [| Value.Int v |]) values;
        if with_index then ignore (Database.exec db "CREATE INDEX t_v ON t (v)");
        let r =
          Database.query db (Printf.sprintf "SELECT v FROM t WHERE v >= %d ORDER BY v" probe)
        in
        List.map (fun row -> Value.to_string row.(0)) r.Executor.rows
      in
      mk true = mk false)

(* ------------------------------------------------------------------ *)
(* Prepared statements and the plan cache *)

let mk_cached_db () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (id INTEGER, grp INTEGER, name TEXT)");
  for i = 0 to 99 do
    Database.insert_row_array db "t"
      [| Value.Int i; Value.Int (i mod 5); Value.Text (Printf.sprintf "n%d" i) |]
  done;
  db

let test_cache_counters () =
  let db = mk_cached_db () in
  Database.reset_cache_stats db;
  for g = 0 to 9 do
    ignore (Database.query ~params:[| Value.Int (g mod 5) |] db "SELECT id FROM t WHERE grp = ?1")
  done;
  let hits, misses, inval, evict = Database.cache_stats db in
  check_int "one miss (first execution plans)" 1 misses;
  check_int "nine hits (same text, different bindings)" 9 hits;
  check_int "no invalidations" 0 inval;
  check_int "no evictions" 0 evict

let test_cache_identical_results () =
  let db = mk_cached_db () in
  let run () =
    let r =
      Database.query ~params:[| Value.Int 3 |] db
        "SELECT id, name FROM t WHERE grp = ?1 ORDER BY id"
    in
    List.map (fun row -> List.map Value.to_string (Array.to_list row)) r.Executor.rows
  in
  let first = run () in
  let cached = run () in
  Database.set_plan_cache db false;
  let uncached = run () in
  Database.set_plan_cache db true;
  check_bool "non-empty" true (first <> []);
  check_bool "cached run equals first run" true (first = cached);
  check_bool "cache off equals cache on" true (uncached = cached)

let test_cache_invalidation () =
  let db = mk_cached_db () in
  let p = Database.prepare db "SELECT id FROM t WHERE grp = ?1" in
  ignore (Database.query_prepared ~params:[| Value.Int 1 |] db p);
  Database.reset_cache_stats db;
  ignore (Database.query_prepared ~params:[| Value.Int 1 |] db p);
  let hits, _, _, _ = Database.cache_stats db in
  check_int "cached before DDL" 1 hits;
  (* CREATE INDEX empties the cache: the next execution must replan so it
     can consider the new access path *)
  ignore (Database.exec db "CREATE INDEX t_grp ON t (grp)");
  let _, _, inval, _ = Database.cache_stats db in
  check_bool "DDL counted as invalidation" true (inval >= 1);
  Database.reset_cache_stats db;
  let r = Database.query_prepared ~params:[| Value.Int 1 |] db p in
  let _, misses, _, _ = Database.cache_stats db in
  check_int "replans after CREATE INDEX" 1 misses;
  check_int "same answer through the new plan" 20 (List.length r.Executor.rows);
  (* any DROP TABLE clears the cache too *)
  ignore (Database.exec db "CREATE TABLE scratch (x INTEGER)");
  ignore (Database.query_prepared ~params:[| Value.Int 1 |] db p);
  ignore (Database.exec db "DROP TABLE scratch");
  Database.reset_cache_stats db;
  ignore (Database.query_prepared ~params:[| Value.Int 1 |] db p);
  let _, misses, _, _ = Database.cache_stats db in
  check_int "replans after DROP TABLE" 1 misses

let test_cache_drift_invalidation () =
  let db = mk_cached_db () in
  let stmt = "SELECT count(*) FROM t WHERE grp = ?1" in
  ignore (Database.query ~params:[| Value.Int 0 |] db stmt);
  (* grow the table well past the ~20% drift threshold the planner's
     stats cache uses *)
  for i = 100 to 299 do
    Database.insert_row_array db "t" [| Value.Int i; Value.Int (i mod 5); Value.Text "x" |]
  done;
  Database.reset_cache_stats db;
  let r = Database.query ~params:[| Value.Int 0 |] db stmt in
  let _, misses, inval, _ = Database.cache_stats db in
  (* mutually exclusive counters: a stale entry is one invalidation, not
     also a miss *)
  check_int "drift counted as invalidation" 1 inval;
  check_int "not double-counted as a miss" 0 misses;
  check_bool "fresh plan sees the new rows" true (r.Executor.rows = [ [| Value.Int 60 |] ])

let test_prepared_bindings () =
  let db = mk_cached_db () in
  let p = Database.prepare db "SELECT count(*) FROM t WHERE grp = ?1 AND id < ?2" in
  let count params =
    match (Database.query_prepared ~params db p).Executor.rows with
    | [ [| Value.Int c |] ] -> c
    | _ -> -1
  in
  check_int "grp 0 below 50" 10 (count [| Value.Int 0; Value.Int 50 |]);
  check_int "grp 0 all" 20 (count [| Value.Int 0; Value.Int 100 |]);
  check_int "grp 4 below 10" 2 (count [| Value.Int 4; Value.Int 10 |]);
  Alcotest.check_raises "missing binding" (Expr_eval.Eval_error "unbound parameter ?2")
    (fun () -> ignore (count [| Value.Int 0 |]))

(* Pins the drift rule on an initially-empty table: a plan recorded at
   row count 0 must be invalidated by the very first insert (drift 1 > 20%
   of max 1 0), or cached plans would keep stale estimates forever. *)
let test_cache_empty_table_drift () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
  let stmt = "SELECT v FROM t WHERE v = ?1" in
  ignore (Database.query ~params:[| Value.Int 7 |] db stmt);
  Database.insert_row_array db "t" [| Value.Int 7 |];
  Database.reset_cache_stats db;
  let r = Database.query ~params:[| Value.Int 7 |] db stmt in
  let _, misses, inval, _ = Database.cache_stats db in
  check_int "first insert invalidates the empty-table plan" 1 inval;
  check_int "invalidation is not also a miss" 0 misses;
  check_int "fresh plan sees the new row" 1 (List.length r.Executor.rows)

let test_cache_lru_eviction () =
  let cache = Plan_cache.create ~capacity:128 () in
  let plan = Plan.Seq_scan { table = "t"; alias = "t" } in
  let row_count _ = Some 0 in
  let key i = Printf.sprintf "k%d" i in
  for i = 0 to 127 do
    Plan_cache.add cache (key i) ~tables:[] plan
  done;
  check_int "at capacity" 128 (Plan_cache.size cache);
  (* touch k0 so k1 becomes the least recently used *)
  check_bool "k0 hit" true (Plan_cache.find cache ~row_count (key 0) <> None);
  Plan_cache.add cache (key 128) ~tables:[] plan;
  check_int "capacity respected" 128 (Plan_cache.size cache);
  check_bool "recently used k0 retained" true (Plan_cache.find cache ~row_count (key 0) <> None);
  check_bool "LRU k1 evicted" true (Plan_cache.find cache ~row_count (key 1) = None);
  let _, _, _, evictions = Plan_cache.stats cache in
  check_int "eviction counted" 1 evictions

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE *)

let test_analyze_matches_plain () =
  let db = mk_cached_db () in
  ignore (Database.exec db "CREATE INDEX t_grp ON t (grp)");
  List.iter
    (fun sql ->
      let plain = Database.query db sql in
      let analyzed, annot = Database.query_analyzed db sql in
      check_bool ("identical results: " ^ sql) true
        (plain.Executor.rows = analyzed.Executor.rows
        && plain.Executor.columns = analyzed.Executor.columns);
      check_int ("root actual rows: " ^ sql)
        (List.length analyzed.Executor.rows)
        annot.Plan.an_rows;
      (* batches are never empty: none when nothing came out, at most one
         per row otherwise *)
      let n = List.length analyzed.Executor.rows in
      check_bool ("root batches: " ^ sql) true
        ((n = 0) = (annot.Plan.an_batches = 0) && annot.Plan.an_batches <= n);
      check_bool ("at least one operator: " ^ sql) true
        (Plan.annotated_operator_count annot >= 1))
    [
      "SELECT id FROM t WHERE grp = 2 ORDER BY id";
      "SELECT grp, count(*) FROM t GROUP BY grp ORDER BY grp";
      "SELECT a.id FROM t a, t b WHERE a.id = b.id AND b.grp = 1 LIMIT 7";
      "SELECT DISTINCT grp FROM t";
    ]

let analyze_root_rows_prop =
  QCheck.Test.make ~name:"analyze root rows equal result cardinality" ~count:50
    QCheck.(pair (list (int_range 0 20)) (int_range 0 20))
    (fun (values, probe) ->
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
      List.iter (fun v -> Database.insert_row_array db "t" [| Value.Int v |]) values;
      let sql = Printf.sprintf "SELECT v FROM t WHERE v >= %d ORDER BY v" probe in
      let plain = Database.query db sql in
      let analyzed, annot = Database.query_analyzed db sql in
      plain.Executor.rows = analyzed.Executor.rows
      && annot.Plan.an_rows = List.length analyzed.Executor.rows)

(* ------------------------------------------------------------------ *)
(* Vectorized executor and staircase join *)

let v_int i = Value.Int i
let v_text s = Value.Text s

(* Literal rows, order included, for every operator shape. *)
let literal_queries =
  [
    ( "SELECT id, name FROM people WHERE age > 20",
      [ [| v_int 1; v_text "ada" |]; [| v_int 2; v_text "bob" |]; [| v_int 3; v_text "cyd" |] ] );
    ( "SELECT city, count(*), sum(age) FROM people GROUP BY city ORDER BY city",
      [
        [| v_text "london"; v_int 2; v_int 72 |];
        [| v_text "paris"; v_int 1; v_int 25 |];
        [| v_text "rome"; v_int 1; Value.Null |];
      ] );
    ( "SELECT DISTINCT city FROM people",
      [ [| v_text "london" |]; [| v_text "paris" |]; [| v_text "rome" |] ] );
    ( "SELECT a.name, b.name FROM people a, people b WHERE a.city = b.city ORDER BY a.id, b.id",
      List.map
        (fun (x, y) -> [| v_text x; v_text y |])
        [ ("ada", "ada"); ("ada", "cyd"); ("bob", "bob"); ("cyd", "ada"); ("cyd", "cyd"); ("dan", "dan") ]
    );
    ("SELECT name FROM people ORDER BY age DESC, name LIMIT 2", [ [| v_text "ada" |]; [| v_text "cyd" |] ]);
    ("SELECT id + age FROM people WHERE age IS NOT NULL", [ [| v_int 37 |]; [| v_int 27 |]; [| v_int 39 |] ]);
    ( "SELECT name FROM people WHERE city = 'london' UNION ALL SELECT name FROM people WHERE \
       city = 'paris'",
      [ [| v_text "ada" |]; [| v_text "cyd" |]; [| v_text "bob" |] ] );
    ( "SELECT a.id FROM people a, people b LIMIT 5",
      [ [| v_int 1 |]; [| v_int 1 |]; [| v_int 1 |]; [| v_int 1 |]; [| v_int 2 |] ] );
  ]

let test_literal_rows () =
  let db = db_with_people () in
  List.iter
    (fun (sql, expected) -> check_bool ("rows: " ^ sql) true (rows db sql = expected))
    literal_queries

(* The four operators that materialize or re-chunk (Sort, Distinct,
   Union_all, Nl_join), on empty inputs and on inputs past one batch:
   [big] has 2500 rows, so a cross product with [three] is emitted in
   several batches and everything above it crosses batch boundaries. *)
let test_ported_operator_order () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE big (id INTEGER NOT NULL, k INTEGER)");
  ignore (Database.exec db "CREATE TABLE three (j INTEGER NOT NULL)");
  ignore (Database.exec db "CREATE TABLE empty (e INTEGER)");
  let n = 2500 in
  let key i = i * 7919 mod 13 in
  for i = 0 to n - 1 do
    Database.insert_row_array db "big" [| v_int i; v_int (key i) |]
  done;
  List.iter (fun j -> Database.insert_row_array db "three" [| v_int j |]) [ 0; 1; 2 ];
  let ids = List.init n Fun.id in
  let ints l = List.map (fun i -> [| v_int i |]) l in
  let check name sql expected = check_bool name true (rows db sql = expected) in
  (* Nl_join: left-major, every inner row per outer row; the planner puts
     the smaller input ([three]) on the left *)
  let cross = List.concat_map (fun j -> List.map (fun i -> (i, j)) ids) [ 0; 1; 2 ] in
  check "nested loop left-major" "SELECT b.id, t.j FROM big b, three t"
    (List.map (fun (i, j) -> [| v_int i; v_int j |]) cross);
  check "nested loop, empty inner" "SELECT b.id FROM big b, empty e" [];
  check "nested loop, empty outer" "SELECT t.j FROM empty e, three t" [];
  let _, annot = Database.query_analyzed db "SELECT b.id, t.j FROM big b, three t" in
  let nl =
    Plan.fold_annotated
      (fun acc a -> match a.Plan.an_node with Plan.Nl_join _ -> Some a | _ -> acc)
      None annot
  in
  (match nl with
  | Some a ->
    check_int "nested loop rows" (3 * n) a.Plan.an_rows;
    check_int "nested loop emits full batches" ((3 * n + Executor.batch_size - 1) / Executor.batch_size)
      a.Plan.an_batches
  | None -> Alcotest.fail "no nested loop in the plan");
  (* Sort: stable, so equal keys keep scan order; DESC reverses keys only *)
  let by_key cmp = List.stable_sort (fun a b -> cmp (key a) (key b)) ids in
  check "sort stable" "SELECT id FROM big ORDER BY k" (ints (by_key compare));
  check "sort desc stable" "SELECT id FROM big ORDER BY k DESC"
    (ints (by_key (fun a b -> compare b a)));
  check "sort over batches" "SELECT b.id, t.j FROM big b, three t ORDER BY t.j DESC, b.k"
    (List.concat_map
       (fun j -> List.map (fun i -> [| v_int i; v_int j |]) (by_key compare))
       [ 2; 1; 0 ]);
  check "sort empty" "SELECT e FROM empty ORDER BY e" [];
  (* Distinct: first occurrence wins, across batch boundaries *)
  let first_seen l =
    List.rev
      (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)
  in
  check "distinct first occurrence" "SELECT DISTINCT k FROM big"
    (ints (first_seen (List.map key ids)));
  check "distinct over batches" "SELECT DISTINCT b.k, t.j FROM big b, three t"
    (List.map
       (fun (k, j) -> [| v_int k; v_int j |])
       (first_seen (List.map (fun (i, j) -> (key i, j)) cross)));
  check "distinct empty" "SELECT DISTINCT e FROM empty" [];
  (* Union_all: inputs in order, each in its own order *)
  check "union inputs in order"
    "SELECT id FROM big WHERE k = 3 UNION ALL SELECT j FROM three UNION ALL SELECT id FROM big \
     WHERE k < 2"
    (ints
       (List.filter (fun i -> key i = 3) ids @ [ 0; 1; 2 ] @ List.filter (fun i -> key i < 2) ids));
  check "union with empty inputs" "SELECT e FROM empty UNION ALL SELECT j FROM three UNION ALL \
    SELECT e FROM empty"
    (ints [ 0; 1; 2 ]);
  check "union of empties" "SELECT e FROM empty UNION ALL SELECT e FROM empty" []

(* Property: on randomized tables, every query template answers with the
   rows (order included) computed directly from the data. Seq scans run in
   insertion order, an index range scan in key order (insertion order
   within a key), and the self-join probes [x] against a hash table on [y]
   whose buckets list the latest insert first. The self-join's output grows
   quadratically over only nine keys, so its table is cut to 200 rows;
   the 2500-row "ported operator order" case covers large inputs. *)
let batched_model_prop =
  QCheck.Test.make ~name:"executor rows equal the model" ~count:80
    QCheck.(pair (list (pair (int_range 0 8) (int_range 0 5))) (int_range 0 6))
    (fun (data, which) ->
      let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
      let data = if which = 3 then take 200 data else data in
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE t (a INTEGER, b INTEGER)");
      List.iter
        (fun (a, b) -> Database.insert_row_array db "t" [| Value.Int a; Value.Int b |])
        data;
      ignore (Database.exec db "CREATE INDEX t_a ON t (a)");
      let by_a l = List.stable_sort (fun (a1, _) (a2, _) -> compare a1 a2) l in
      let ints l = List.map (fun i -> [| v_int i |]) l in
      let sql, expected =
        match which with
        | 0 ->
          ( "SELECT a, b FROM t WHERE a > 2 AND b < 4",
            List.map
              (fun (a, b) -> [| v_int a; v_int b |])
              (by_a (List.filter (fun (a, b) -> a > 2 && b < 4) data)) )
        | 1 ->
          ( "SELECT a, count(*), min(b) FROM t GROUP BY a ORDER BY a",
            List.map
              (fun a ->
                let bs = List.filter_map (fun (a', b) -> if a' = a then Some b else None) data in
                [| v_int a; v_int (List.length bs); v_int (List.fold_left min max_int bs) |])
              (List.sort_uniq compare (List.map fst data)) )
        | 2 ->
          ( "SELECT DISTINCT b FROM t",
            ints
              (List.rev
                 (List.fold_left
                    (fun acc (_, b) -> if List.mem b acc then acc else b :: acc)
                    [] data)) )
        | 3 ->
          let latest_first = List.rev data in
          let joined =
            List.concat_map
              (fun (xa, xb) ->
                List.filter_map
                  (fun (ya, yb) -> if ya = xa then Some ((xb, yb), [| v_int xa; v_int yb |]) else None)
                  latest_first)
              data
          in
          ( "SELECT x.a, y.b FROM t x, t y WHERE x.a = y.a ORDER BY x.b, y.b LIMIT 20",
            take 20 (List.map snd (List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2) joined))
          )
        | 4 ->
          ( "SELECT a FROM t WHERE a = 3",
            ints (List.filter_map (fun (a, _) -> if a = 3 then Some a else None) data) )
        | 5 ->
          ( "SELECT a * 2 + b FROM t ORDER BY b LIMIT 5",
            ints
              (take 5
                 (List.map
                    (fun (a, b) -> (a * 2) + b)
                    (List.stable_sort (fun (_, b1) (_, b2) -> compare b1 b2) data))) )
        | _ ->
          ( "SELECT a FROM t WHERE a >= 1 UNION ALL SELECT b FROM t WHERE b <= 2",
            ints
              (List.map fst (by_a (List.filter (fun (a, _) -> a >= 1) data))
              @ List.filter_map (fun (_, b) -> if b <= 2 then Some b else None) data) )
      in
      rows db sql = expected)

let with_staircase on f =
  Planner.set_staircase on;
  Fun.protect ~finally:(fun () -> Planner.set_staircase true) f

let interval_db lohi keys =
  let db = Database.create () in
  (* the plan cache would serve the staircase plan to the toggled-off run *)
  Database.set_plan_cache db false;
  ignore (Database.exec db "CREATE TABLE anc (id INTEGER NOT NULL, lo INTEGER, hi INTEGER)");
  ignore (Database.exec db "CREATE TABLE des (id INTEGER NOT NULL, k INTEGER)");
  List.iteri
    (fun i (lo, hi) ->
      Database.insert_row_array db "anc" [| Value.Int i; Value.Int lo; Value.Int hi |])
    lohi;
  List.iteri
    (fun i k -> Database.insert_row_array db "des" [| Value.Int i; Value.Int k |])
    keys;
  db

let sorted_rows r = List.sort compare r.Executor.rows

let test_staircase_plan_shape () =
  let db = interval_db [ (1, 5) ] [ 3 ] in
  let sql =
    "SELECT a.id, d.id FROM anc a, des d WHERE d.k > a.lo AND d.k <= a.hi"
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let stair = with_staircase true (fun () -> Plan.to_string (Database.plan_of db sql)) in
  check_bool "containment pair plans as StaircaseJoin" true (contains stair "StaircaseJoin");
  check_bool "no nested loop left" false (contains stair "NestedLoopJoin");
  let nl = with_staircase false (fun () -> Plan.to_string (Database.plan_of db sql)) in
  check_bool "toggle restores the cross product" true (contains nl "NestedLoopJoin")

(* Property: the staircase join returns exactly the rows the filtered
   cross product does, for every bound-strictness combination, on
   arbitrary (including empty and inverted) intervals. The reference is a
   nested loop over both inputs, so each is cut to 200 rows: keys span
   only 0..30, and unbounded lists made one run take up to a minute. *)
let staircase_equiv_prop =
  QCheck.Test.make ~name:"staircase equals filtered cross product" ~count:80
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 200) (pair (int_range 0 30) (int_range 0 30)))
        (list_of_size Gen.(int_range 0 200) (int_range 0 30))
        (int_range 0 3))
    (fun (lohi, keys, strictness) ->
      let db = interval_db lohi keys in
      let lower_op = if strictness land 1 = 0 then ">" else ">=" in
      let upper_op = if strictness land 2 = 0 then "<=" else "<" in
      let sql =
        Printf.sprintf
          "SELECT a.id, a.lo, a.hi, d.id, d.k FROM anc a, des d WHERE d.k %s a.lo AND d.k %s \
           a.hi"
          lower_op upper_op
      in
      let stair = with_staircase true (fun () -> Database.query db sql) in
      let nl = with_staircase false (fun () -> Database.query db sql) in
      sorted_rows stair = sorted_rows nl)

(* Estimated rows flow into the executed tree, and the misestimation
   factor is the >= 1 ratio between the two. *)
let test_analyze_estimates () =
  let db = db_with_people () in
  let _, annot = Database.query_analyzed db "SELECT name FROM people WHERE age > 0" in
  let all = Plan.fold_annotated (fun acc a -> a :: acc) [] annot in
  check_bool "every operator costed" true
    (List.for_all (fun a -> a.Plan.an_est <> None) all);
  check_bool "est printed" true
    (let s = Plan.annotated_to_string annot in
     let contains needle =
       let n = String.length needle in
       let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
       go 0
     in
     contains "est=" && contains "misest=");
  check_bool "misestimation ratio" true
    (Plan.misestimation ~est:10 ~actual:5 = 2.0
    && Plan.misestimation ~est:5 ~actual:10 = 2.0
    && Plan.misestimation ~est:0 ~actual:0 = 1.0)

(* ------------------------------------------------------------------ *)
(* Statistics lifecycle: incremental folds and cache invalidation *)

let test_stats_fold_on_bulk_finish () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
  for i = 1 to 20 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  let st0 = Database.analyze db "t" in
  check_int "baseline rows" 20 st0.Stats.ts_rows;
  (* bulk-load an appended range; finish_session folds it into the
     existing statistics without a full re-scan *)
  let s = Database.load_session db in
  for i = 21 to 200 do
    Database.session_insert s "t" [| Value.Int i |]
  done;
  ignore (Database.finish_session s);
  let st1 = Database.analyze db "t" in
  check_int "rows after fold" 200 st1.Stats.ts_rows;
  check_int "distinct after fold" 200 st1.Stats.ts_columns.(0).Stats.cs_distinct;
  Alcotest.check value_testable "max absorbed" (Value.Int 200) st1.Stats.ts_columns.(0).Stats.cs_max;
  (* histogram covers the folded range *)
  (match st1.Stats.ts_columns.(0).Stats.cs_hist with
  | Some h ->
    check_bool "histogram spans the loaded range" true (h.Stats.h_hi >= 200.0);
    check_int "histogram total" 200 h.Stats.h_total
  | None -> Alcotest.fail "numeric column lost its histogram")

let test_stats_change_invalidates_cache () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (v INTEGER)");
  for i = 1 to 10 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  ignore (Database.analyze db "t");
  ignore (Database.query db "SELECT v FROM t WHERE v = 3");
  Database.reset_cache_stats db;
  (* a material (> 20%) growth through a bulk session must clear cached
     plans — they were costed against the old statistics *)
  let s = Database.load_session db in
  for i = 11 to 100 do
    Database.session_insert s "t" [| Value.Int i |]
  done;
  ignore (Database.finish_session s);
  let _, _, invalidations, _ = Database.cache_stats db in
  check_bool "material stats change invalidated the plan cache" true (invalidations > 0)

let test_range_selectivity_histogram () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE u (v INTEGER)");
  for i = 1 to 1000 do
    ignore (Database.insert_row_array db "u" [| Value.Int i |])
  done;
  let st = Database.analyze db "u" in
  let sel ~lower ~upper = Stats.range_selectivity st ~column:0 ~lower ~upper in
  let close a b = Float.abs (a -. b) < 0.08 in
  check_bool "half range" true
    (close 0.5 (sel ~lower:(Some (Value.Int 500, true)) ~upper:None));
  check_bool "narrow range" true
    (close 0.1 (sel ~lower:(Some (Value.Int 100, true)) ~upper:(Some (Value.Int 199, true))));
  check_bool "full range" true
    (close 1.0 (sel ~lower:(Some (Value.Int 1, true)) ~upper:(Some (Value.Int 1000, true))));
  check_bool "inverted range is empty" true
    (sel ~lower:(Some (Value.Int 800, true)) ~upper:(Some (Value.Int 100, true)) = 0.0);
  (* non-numeric bound falls back to the fixed guess *)
  check_bool "text bound falls back" true
    (sel ~lower:(Some (Value.Text "x", true)) ~upper:None = 0.25)

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "coerce" `Quick test_value_coerce;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "composite" `Quick test_btree_composite;
          QCheck_alcotest.to_alcotest btree_model_prop;
          QCheck_alcotest.to_alcotest btree_range_prop;
          QCheck_alcotest.to_alcotest btree_bulk_prop;
          QCheck_alcotest.to_alcotest btree_bulk_merge_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "crud" `Quick test_table_crud;
          Alcotest.test_case "index maintenance" `Quick test_table_index_maintenance;
          Alcotest.test_case "not null" `Quick test_table_not_null;
        ] );
      ( "bulk load",
        [
          QCheck_alcotest.to_alcotest table_bulk_prop;
          Alcotest.test_case "mutation guards" `Quick test_table_bulk_guards;
          Alcotest.test_case "abort restores the table" `Quick test_table_bulk_abort;
          Alcotest.test_case "mutations after bulk" `Quick test_table_mutations_after_bulk;
          Alcotest.test_case "session equals row-at-a-time" `Quick test_db_session_equivalence;
          Alcotest.test_case "session abort" `Quick test_db_session_abort;
          Alcotest.test_case "DDL mid-session" `Quick test_db_session_ddl;
        ] );
      ( "sql",
        [
          Alcotest.test_case "select/where" `Quick test_sql_select_where;
          Alcotest.test_case "expressions" `Quick test_sql_expressions;
          Alcotest.test_case "order/limit" `Quick test_sql_order_limit;
          Alcotest.test_case "aggregates" `Quick test_sql_aggregates;
          Alcotest.test_case "join" `Quick test_sql_join;
          Alcotest.test_case "self join" `Quick test_sql_self_join;
          Alcotest.test_case "union/distinct" `Quick test_sql_union_distinct;
          Alcotest.test_case "update/delete" `Quick test_sql_update_delete;
          Alcotest.test_case "index scan used" `Quick test_sql_index_scan_used;
          Alcotest.test_case "index range" `Quick test_sql_index_range;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "print round-trip" `Quick test_sql_roundtrip_print;
          Alcotest.test_case "render" `Quick test_render_result;
          QCheck_alcotest.to_alcotest index_equivalence_prop;
          QCheck_alcotest.to_alcotest sql_fuzz_prop;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "LIKE matcher" `Quick test_like_matcher;
          Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
          Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic_semantics;
          Alcotest.test_case "aggregate DISTINCT" `Quick test_aggregate_distinct;
          Alcotest.test_case "group by expression" `Quick test_group_by_expression;
          Alcotest.test_case "order by alias" `Quick test_order_by_alias;
          Alcotest.test_case "quoted identifiers/comments" `Quick test_quoted_identifiers_and_comments;
          Alcotest.test_case "insert column subset" `Quick test_insert_column_subset;
          Alcotest.test_case "update expression" `Quick test_update_expression;
          Alcotest.test_case "union all order" `Quick test_union_all_order;
        ] );
      ( "access paths",
        [
          Alcotest.test_case "IN-list index probes" `Quick test_in_list_index_probes;
          Alcotest.test_case "between range" `Quick test_between_index_range;
          Alcotest.test_case "LIKE prefix index" `Quick test_like_prefix_index;
          Alcotest.test_case "LIKE prefix successor" `Quick test_like_prefix_successor;
          Alcotest.test_case "LIKE high-byte range" `Quick test_like_high_byte_range;
        ] );
      ( "corner cases",
        [
          Alcotest.test_case "sql corner cases" `Quick test_sql_corner_cases;
          Alcotest.test_case "btree at scale" `Quick test_btree_scale;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "analyze" `Quick test_column_stats;
          Alcotest.test_case "refresh on drift" `Quick test_stats_refresh_on_drift;
          Alcotest.test_case "stats drive join order" `Quick test_stats_drive_join_order;
          Alcotest.test_case "stats pick the selective index" `Quick
            test_stats_pick_selective_index;
          Alcotest.test_case "bulk finish folds the loaded range" `Quick
            test_stats_fold_on_bulk_finish;
          Alcotest.test_case "material change clears the plan cache" `Quick
            test_stats_change_invalidates_cache;
          Alcotest.test_case "histogram range selectivity" `Quick
            test_range_selectivity_histogram;
        ] );
      ( "vectorized executor",
        [
          Alcotest.test_case "literal rows" `Quick test_literal_rows;
          Alcotest.test_case "ported operator order" `Quick test_ported_operator_order;
          QCheck_alcotest.to_alcotest batched_model_prop;
        ] );
      ( "staircase join",
        [
          Alcotest.test_case "plan shape" `Quick test_staircase_plan_shape;
          QCheck_alcotest.to_alcotest staircase_equiv_prop;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
          Alcotest.test_case "identical results cache on/off" `Quick
            test_cache_identical_results;
          Alcotest.test_case "DDL invalidation" `Quick test_cache_invalidation;
          Alcotest.test_case "stats-drift invalidation" `Quick test_cache_drift_invalidation;
          Alcotest.test_case "prepared bindings" `Quick test_prepared_bindings;
          Alcotest.test_case "empty-table drift" `Quick test_cache_empty_table_drift;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        ] );
      ( "explain analyze",
        [
          Alcotest.test_case "matches plain execution" `Quick test_analyze_matches_plain;
          Alcotest.test_case "estimates annotate the tree" `Quick test_analyze_estimates;
          QCheck_alcotest.to_alcotest analyze_root_rows_prop;
        ] );
      ( "persistence",
        [ Alcotest.test_case "dump/restore" `Quick test_dump_restore ] );
      ("vec", [ Alcotest.test_case "operations" `Quick test_vec ]);
    ]
