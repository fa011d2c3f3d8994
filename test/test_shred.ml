(* Tests for the shredding schemes: schema creation, shred/reconstruct
   round-trips, and XPath-via-SQL equivalence against the native
   evaluator. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database

let check_bool = Alcotest.(check bool)
let check_strings = Alcotest.(check (list string))

let doc_src =
  "<site>\
   <people>\
   <person id=\"p1\"><name>ada</name><age>36</age></person>\
   <person id=\"p2\"><name>bob</name><age>25</age></person>\
   <person id=\"p3\"><name>cyd</name></person>\
   </people>\
   <items>\
   <item price=\"10\"><name>hat</name><keyword>red</keyword><keyword>wool</keyword></item>\
   <item price=\"25\"><name>pin</name><sub><keyword>steel</keyword></sub></item>\
   </items>\
   </site>"

let parse = Xmlkit.Parser.parse

(* Shared workload of queries every mapping must answer like the native
   evaluator. *)
let workload =
  [
    "/site/people/person/name";
    "/site/people/person";
    "/site/items/item/name";
    "/site/people/person/@id";
    "//keyword";
    "//item//keyword";
    "/site//name";
    "//person[age=36]/name";
    "//person[@id='p2']/name";
    "//item[@price > 10]/name";
    "//person[name]/age";
    "//person[age=99]/name";
    "/site/*";
    "/site/people/person/name/text()";
    "//nosuchtag";
    (* untranslatable: exercised via fallback *)
    "/site/people/person[2]/name";
    "//age/../name";
  ]

(* Shred one document the way the store does: through a bulk-load
   session, aborted if the scheme rejects the document. *)
let shred (module M : Xmlshred.Mapping.MAPPING) db ~doc dom =
  let session = Db.load_session db in
  match M.shred_bulk session ~doc (Index.of_document dom) with
  | () -> ignore (Db.finish_session session)
  | exception e ->
    Db.abort_session session;
    raise e

let setup (module M : Xmlshred.Mapping.MAPPING) ?(src = doc_src) () =
  let db = Db.create () in
  M.create_schema db;
  M.create_indexes db;
  let dom = parse src in
  shred (module M) db ~doc:0 dom;
  (db, dom)

let native_values dom q =
  let ix = Index.of_document dom in
  Xpathkit.Eval.select_strings ix q

let test_roundtrip m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db, dom = setup m () in
  let back = M.reconstruct db ~doc:0 in
  check_bool "round trip equal" true (Dom.equal dom back)

let test_workload m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db, dom = setup m () in
  List.iter
    (fun q ->
      let expected = native_values dom q in
      let path = Xpathkit.Parser.parse_path q in
      let got = (M.query db ~doc:0 path).Xmlshred.Mapping.values in
      check_strings (M.id ^ ": " ^ q) expected got)
    workload

let test_multi_doc m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db = Db.create () in
  M.create_schema db;
  M.create_indexes db;
  let d0 = parse "<a><b>first</b></a>" in
  let d1 = parse "<a><b>second</b><b>third</b></a>" in
  shred (module M) db ~doc:0 d0;
  shred (module M) db ~doc:1 d1;
  let q = Xpathkit.Parser.parse_path "/a/b" in
  check_strings "doc 0" [ "first" ] (M.query db ~doc:0 q).Xmlshred.Mapping.values;
  check_strings "doc 1" [ "second"; "third" ] (M.query db ~doc:1 q).Xmlshred.Mapping.values;
  check_bool "doc 0 round trip" true (Dom.equal d0 (M.reconstruct db ~doc:0));
  check_bool "doc 1 round trip" true (Dom.equal d1 (M.reconstruct db ~doc:1))

let test_sql_reported m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db, _ = setup m () in
  let r = M.query db ~doc:0 (Xpathkit.Parser.parse_path "/site/people/person/name") in
  check_bool "sql recorded" true (r.Xmlshred.Mapping.sql <> []);
  (* textblob answers everything by parse + native evaluation *)
  if not (List.mem M.id [ "textblob"; "tokens" ]) then
    check_bool "not fallback" false r.Xmlshred.Mapping.fallback;
  let r2 = M.query db ~doc:0 (Xpathkit.Parser.parse_path "/site/people/person[2]/name") in
  check_bool "positional is fallback" true r2.Xmlshred.Mapping.fallback

(* SQL-hostile bytes — single quotes, LIKE wildcards, non-ASCII UTF-8 —
   must survive shredding, translated queries (where they travel as bound
   parameters or centrally quoted literals), and reconstruction. *)
let special_doc_src =
  "<site>\
   <people>\
   <person id=\"o'brien\"><name>miles o'brien</name><age>40</age></person>\
   <person id=\"p2\"><name>100% wool</name></person>\
   <person id=\"caf\xc3\xa9\"><name>caf\xc3\xa9 cr\xc3\xa8me</name></person>\
   </people>\
   <items>\
   <item price=\"10\"><name>50% off 'deal'</name><keyword>a'b%c_d</keyword></item>\
   </items>\
   </site>"

let special_workload =
  [
    "//person[@id=\"o'brien\"]/name";
    "/site/people/person[name='100% wool']";
    "//person[name=\"caf\xc3\xa9 cr\xc3\xa8me\"]/@id";
    "//item[keyword=\"a'b%c_d\"]/name";
    "//keyword";
  ]

let test_special_chars m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db, dom = setup m ~src:special_doc_src () in
  check_bool "round trip" true (Dom.equal dom (M.reconstruct db ~doc:0));
  List.iter
    (fun q ->
      let expected = native_values dom q in
      let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path q)).Xmlshred.Mapping.values in
      check_strings (M.id ^ ": " ^ q) expected got)
    special_workload

(* Data-centric random documents (no mixed content): the shape all six
   mappings must round-trip. Values are words, numbers, and numbers padded
   with whitespace (which XPath's number() trims). *)
let gen_data_doc =
  let open QCheck.Gen in
  let tag = oneofl [ "r"; "a"; "b"; "c"; "d" ] in
  let text =
    frequency
      [
        (2, map (fun i -> "v" ^ string_of_int i) (int_range 0 99));
        (1, map string_of_int (int_range 0 9));
        (1, map (fun i -> Printf.sprintf " %d " i) (int_range 0 9));
      ]
  in
  let rec elem depth =
    let* t = tag in
    let* nattrs = int_range 0 2 in
    let* attr_vals = list_repeat nattrs text in
    let attrs = List.mapi (fun i v -> Dom.attr (Printf.sprintf "k%d" i) v) attr_vals in
    if depth = 0 then
      let* v = text in
      return (Dom.elem ~attrs t [ Dom.text v ])
    else
      let* n = int_range 0 3 in
      if n = 0 then
        let* v = text in
        return (Dom.elem ~attrs t [ Dom.text v ])
      else
        let* children = list_repeat n (map (fun e -> Dom.Element e) (elem (depth - 1))) in
        return (Dom.elem ~attrs t children)
  in
  let* root = elem 3 in
  return (Dom.document { root with Dom.tag = "r" })

let arb_data_doc = QCheck.make ~print:Xmlkit.Serializer.to_string gen_data_doc

let roundtrip_prop m =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  QCheck.Test.make
    ~name:(M.id ^ " shred/reconstruct identity")
    ~count:60 arb_data_doc
    (fun dom ->
      let db = Db.create () in
      M.create_schema db;
      shred (module M) db ~doc:0 dom;
      Dom.equal dom (M.reconstruct db ~doc:0))

let query_equiv_prop m =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let queries = [ "/r/a"; "/r/a/b"; "//b"; "//a//c"; "/r/*"; "//d/@k0"; "//c[d]" ] in
  QCheck.Test.make
    ~name:(M.id ^ " SQL query equals native eval")
    ~count:40 arb_data_doc
    (fun dom ->
      let db = Db.create () in
      M.create_schema db;
      M.create_indexes db;
      shred (module M) db ~doc:0 dom;
      List.for_all
        (fun q ->
          let expected = native_values dom q in
          let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path q)).Xmlshred.Mapping.values in
          expected = got)
        queries)

(* Random simple paths over the same tag alphabet as [gen_data_doc]:
   random child/descendant steps, wildcards, and predicates, among them
   number comparisons on attributes and children. *)
let gen_path =
  let open QCheck.Gen in
  let tag = oneofl [ "r"; "a"; "b"; "c"; "d" ] in
  let number_op = oneofl [ "!="; "<"; ">" ] in
  let step =
    let* sep = oneofl [ "/"; "//" ] in
    let* test = oneof [ tag; return "*" ] in
    let* pred =
      frequency
        [
          (5, return "");
          (1, map (fun t -> "[" ^ t ^ "]") tag);
          (1, map (fun t -> Printf.sprintf "[@k0='v%d']" t) (int_range 0 99));
          (1, map2 (fun t v -> Printf.sprintf "[%s='v%d']" t v) tag (int_range 0 99));
          (2, map2 (fun op v -> Printf.sprintf "[@k0 %s %d]" op v) number_op (int_range 0 9));
          (2, map3 (fun t op v -> Printf.sprintf "[%s %s %d]" t op v) tag number_op (int_range 0 9));
        ]
    in
    return (sep ^ test ^ pred)
  in
  let* n = int_range 1 4 in
  let* steps = list_repeat n step in
  let* target = oneofl [ ""; "/@k0"; "/text()" ] in
  let path = String.concat "" steps ^ target in
  (* wildcard-with-@ or text() after // are fine; reject paths that end in
     a bare leading-// attribute which the analyzer treats as fallback *)
  return path

let arb_doc_and_random_path =
  QCheck.make
    ~print:(fun (d, p) -> Xmlkit.Serializer.to_string d ^ "  " ^ p)
    QCheck.Gen.(pair gen_data_doc gen_path)

let random_path_prop m =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  QCheck.Test.make
    ~name:(M.id ^ " random paths equal native eval")
    ~count:150 arb_doc_and_random_path
    (fun (dom, path_src) ->
      match Xpathkit.Parser.parse_path path_src with
      | exception Xpathkit.Parser.Parse_error _ -> QCheck.assume_fail ()
      | path ->
        let db = Db.create () in
        M.create_schema db;
        M.create_indexes db;
        shred (module M) db ~doc:0 dom;
        let expected = native_values dom path_src in
        let got = (M.query db ~doc:0 path).Xmlshred.Mapping.values in
        expected = got)

(* High-byte (0xff) text must survive every scheme's shred, query, and
   reconstruction: the prefix-LIKE index range bound used to exclude stored
   values whose suffix begins with a 0xff byte. *)
let test_high_byte_text m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let dom =
    Dom.document
      (Dom.elem "r"
         [
           Dom.element "a" [ Dom.text "ab\xff" ];
           Dom.element "a" [ Dom.text "ab\xffz" ];
           Dom.element "a" [ Dom.text "abc" ];
         ])
  in
  let db = Db.create () in
  M.create_schema db;
  M.create_indexes db;
  shred (module M) db ~doc:0 dom;
  check_bool "round trip" true (Dom.equal dom (M.reconstruct db ~doc:0));
  let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path "/r/a")).Xmlshred.Mapping.values in
  check_strings "high-byte values in document order" [ "ab\xff"; "ab\xffz"; "abc" ] got

(* XPath's number() is NaN for non-numeric text, and NaN != 3 holds, so
   the non-numeric attribute is selected; it trims whitespace, so " 4 " is
   4. *)
let test_number_compare m () =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db, dom = setup m ~src:"<r><a k=\"x\">p</a><a k=\"3\">q</a><a k=\" 4 \">s</a></r>" () in
  List.iter
    (fun q ->
      let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path q)).Xmlshred.Mapping.values in
      check_strings (M.id ^ ": " ^ q) (native_values dom q) got)
    [ "/r/a[@k != 3]"; "//a[@k != 3]"; "//a[@k < 10]" ];
  check_strings "native !=" [ "p"; "s" ] (native_values dom "/r/a[@k != 3]");
  check_strings "native <" [ "q"; "s" ] (native_values dom "//a[@k < 10]")

let mapping_cases m =
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  ( M.id,
    [
      Alcotest.test_case "round trip" `Quick (test_roundtrip m);
      Alcotest.test_case "query workload" `Quick (test_workload m);
      Alcotest.test_case "multiple documents" `Quick (test_multi_doc m);
      Alcotest.test_case "sql reporting" `Quick (test_sql_reported m);
      Alcotest.test_case "special characters" `Quick (test_special_chars m);
      Alcotest.test_case "high-byte text" `Quick (test_high_byte_text m);
      Alcotest.test_case "number comparisons" `Quick (test_number_compare m);
      QCheck_alcotest.to_alcotest (roundtrip_prop m);
      QCheck_alcotest.to_alcotest (query_equiv_prop m);
      QCheck_alcotest.to_alcotest (random_path_prop m);
    ] )

(* ------------------------------------------------------------------ *)
(* Inline mapping: DTD-driven, tested against DTD-valid documents. *)

let site_dtd_src =
  "<!ELEMENT site (people, items)>\n\
   <!ELEMENT people (person*)>\n\
   <!ELEMENT person (name, age?)>\n\
   <!ATTLIST person id CDATA #REQUIRED>\n\
   <!ELEMENT items (item*)>\n\
   <!ELEMENT item (name, keyword*, sub?)>\n\
   <!ATTLIST item price CDATA #IMPLIED>\n\
   <!ELEMENT sub (keyword*)>\n\
   <!ELEMENT name (#PCDATA)>\n\
   <!ELEMENT age (#PCDATA)>\n\
   <!ELEMENT keyword (#PCDATA)>"

let site_dtd = Xmlkit.Dtd.parse site_dtd_src

let inline_mapping = Xmlshred.Inline.make site_dtd

(* A DTD-valid random site document. *)
let gen_site_doc =
  let open QCheck.Gen in
  let word = map (fun i -> "w" ^ string_of_int i) (int_range 0 999) in
  let person i =
    let* n = word in
    let* has_age = bool in
    let* age = int_range 1 99 in
    let children =
      Dom.element "name" [ Dom.text n ]
      :: (if has_age then [ Dom.element "age" [ Dom.text (string_of_int age) ] ] else [])
    in
    return (Dom.element ~attrs:[ Dom.attr "id" (Printf.sprintf "p%d" i) ] "person" children)
  in
  let keyword = map (fun w -> Dom.element "keyword" [ Dom.text w ]) word in
  let item _ =
    let* n = word in
    let* nkw = int_range 0 3 in
    let* kws = list_repeat nkw keyword in
    let* has_sub = bool in
    let* nsub = int_range 0 2 in
    let* sub_kws = list_repeat nsub keyword in
    let* has_price = bool in
    let* price = int_range 1 500 in
    let attrs = if has_price then [ Dom.attr "price" (string_of_int price) ] else [] in
    let children =
      (Dom.element "name" [ Dom.text n ] :: kws)
      @ if has_sub then [ Dom.element "sub" sub_kws ] else []
    in
    return (Dom.element ~attrs "item" children)
  in
  let* npeople = int_range 0 4 in
  let* people = List.init npeople person |> flatten_l in
  let* nitems = int_range 0 4 in
  let* items = List.init nitems item |> flatten_l in
  return
    (Dom.document
       (Dom.elem "site" [ Dom.element "people" people; Dom.element "items" items ]))

let arb_site_doc = QCheck.make ~print:Xmlkit.Serializer.to_string gen_site_doc

let inline_setup src =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  let db = Db.create () in
  M.create_schema db;
  M.create_indexes db;
  let dom = parse src in
  shred (module M) db ~doc:0 dom;
  (db, dom)

let test_inline_roundtrip () =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  let db, dom = inline_setup doc_src in
  check_bool "round trip" true (Dom.equal dom (M.reconstruct db ~doc:0))

let test_inline_workload () =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  let db, dom = inline_setup doc_src in
  List.iter
    (fun q ->
      let expected = native_values dom q in
      let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path q)).Xmlshred.Mapping.values in
      check_strings ("inline: " ^ q) expected got)
    workload

let test_inline_table_count () =
  (* site, people, items are straight-through; person/item/sub/keyword are
     set-valued so they get tables; name/age inline into their parents *)
  let db, _ = inline_setup doc_src in
  let tables = List.filter (fun t -> String.length t > 4 && String.sub t 0 4 = "inl_") (Db.table_names db) in
  check_bool "fewer tables than element types" true (List.length tables < 11);
  check_bool "keyword has a table (set-valued)" true (List.mem "inl_keyword" tables);
  (* name appears under both person and item: in-degree 2 makes it shared *)
  check_bool "name has a table (shared)" true (List.mem "inl_name" tables);
  (* age appears only under person, singleton: inlined, no table *)
  check_bool "age is inlined (no table)" false (List.mem "inl_age" tables)

let test_inline_rejects_invalid () =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  let db = Db.create () in
  M.create_schema db;
  let bad = parse "<site><people><person id=\"p1\"><nosuch/></person></people><items/></site>" in
  (match shred (module M) db ~doc:0 bad with
  | exception Xmlshred.Inline.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for undeclared child");
  let bad_root = parse "<wrong/>" in
  match shred (module M) db ~doc:1 bad_root with
  | exception Xmlshred.Inline.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for wrong root"

let test_inline_special_chars () =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  let db, dom = inline_setup special_doc_src in
  check_bool "round trip" true (Dom.equal dom (M.reconstruct db ~doc:0));
  List.iter
    (fun q ->
      let expected = native_values dom q in
      let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path q)).Xmlshred.Mapping.values in
      check_strings ("inline: " ^ q) expected got)
    special_workload

let inline_roundtrip_prop =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  QCheck.Test.make ~name:"inline shred/reconstruct identity" ~count:60 arb_site_doc (fun dom ->
      let db = Db.create () in
      M.create_schema db;
      shred (module M) db ~doc:0 dom;
      Dom.equal dom (M.reconstruct db ~doc:0))

let inline_query_equiv_prop =
  let module M = (val inline_mapping : Xmlshred.Mapping.MAPPING) in
  let queries =
    [
      "/site/people/person/name";
      "//keyword";
      "//item//keyword";
      "//person[age]/name";
      "//item/@price";
      "/site/items/item[name='w7']/keyword";
      "//sub/keyword";
    ]
  in
  QCheck.Test.make ~name:"inline SQL query equals native eval" ~count:40 arb_site_doc
    (fun dom ->
      let db = Db.create () in
      M.create_schema db;
      M.create_indexes db;
      shred (module M) db ~doc:0 dom;
      List.for_all
        (fun q ->
          let expected = native_values dom q in
          let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path q)).Xmlshred.Mapping.values in
          expected = got)
        queries)

(* Recursive DTD: recursive types break the inlining and get tables. *)
let recursive_dtd =
  Xmlkit.Dtd.parse
    "<!ELEMENT part (partname, part*)>\n<!ELEMENT partname (#PCDATA)>"

let test_inline_recursive () =
  let m = Xmlshred.Inline.make recursive_dtd in
  let module M = (val m : Xmlshred.Mapping.MAPPING) in
  let db = Db.create () in
  M.create_schema db;
  M.create_indexes db;
  let dom =
    parse
      "<part><partname>engine</partname><part><partname>piston</partname></part>\
       <part><partname>valve</partname><part><partname>spring</partname></part></part></part>"
  in
  shred (module M) db ~doc:0 dom;
  check_bool "recursive round trip" true (Dom.equal dom (M.reconstruct db ~doc:0));
  let q s = (M.query db ~doc:0 (Xpathkit.Parser.parse_path s)).Xmlshred.Mapping.values in
  check_strings "child chain" [ "engine" ] (q "/part/partname");
  check_strings "descendants" [ "engine"; "piston"; "valve"; "spring" ] (q "//partname");
  check_strings "nested" [ "spring" ] (q "/part/part/part/partname")

let inline_cases =
  ( "inline",
    [
      Alcotest.test_case "round trip" `Quick test_inline_roundtrip;
      Alcotest.test_case "query workload" `Quick test_inline_workload;
      Alcotest.test_case "table count" `Quick test_inline_table_count;
      Alcotest.test_case "rejects invalid documents" `Quick test_inline_rejects_invalid;
      Alcotest.test_case "special characters" `Quick test_inline_special_chars;
      Alcotest.test_case "recursive DTD" `Quick test_inline_recursive;
      QCheck_alcotest.to_alcotest inline_roundtrip_prop;
      QCheck_alcotest.to_alcotest inline_query_equiv_prop;
    ] )

(* ------------------------------------------------------------------ *)
(* Dewey label encoding: lexicographic label order must equal document
   order at any fanout (the fixed-width encoding capped fanout at 9999
   and raised beyond it). *)

let dewey_component_prop =
  QCheck.Test.make ~name:"dewey component encoding is order-preserving" ~count:500
    QCheck.(pair (int_range 0 10_000_000) (int_range 0 10_000_000))
    (fun (i, j) ->
      let enc = Xmlshred.Dewey.component ~attr:false in
      compare (enc i) (enc j) = compare i j
      && Xmlshred.Dewey.component_ordinal (enc i) = i
      && Xmlshred.Dewey.component_ordinal (Xmlshred.Dewey.component ~attr:true i) = i
      (* an element's attributes sort before its content children *)
      && Xmlshred.Dewey.component ~attr:true i < enc j)

let test_dewey_large_fanout () =
  let n = 12_000 in
  let dom =
    Dom.document
      (Dom.elem "r" (List.init n (fun i -> Dom.element "k" [ Dom.text (string_of_int i) ])))
  in
  let module M = (val Xmlshred.Dewey.mapping : Xmlshred.Mapping.MAPPING) in
  let db = Db.create () in
  M.create_schema db;
  M.create_indexes db;
  shred (module M) db ~doc:0 dom;
  check_bool "round trip at fanout 12000" true (Dom.equal dom (M.reconstruct db ~doc:0));
  let got = (M.query db ~doc:0 (Xpathkit.Parser.parse_path "/r/k")).Xmlshred.Mapping.values in
  check_strings "label order is document order past 9999" (List.init n string_of_int) got

let dewey_label_cases =
  ( "dewey labels",
    [
      QCheck_alcotest.to_alcotest dewey_component_prop;
      Alcotest.test_case "large fanout" `Quick test_dewey_large_fanout;
    ] )

let () =
  Alcotest.run "shred"
    (List.map mapping_cases Xmlshred.Registry.all @ [ inline_cases; dewey_label_cases ])
