(* The Edge mapping (Florescu & Kossmann 1999): the whole document forest in
   one table, one row per parent-to-child edge.

     edge(doc, source, ordinal, kind, name, target, value)

   - [source]/[target] are node ids (the pre-order ids of Xmlkit.Index; the
     document node is 0, so the root element's edge has source 0).
   - [kind] is 'e' element, 'a' attribute, 't' text, 'c' comment, 'p' PI.
   - [name] is the tag / attribute name / PI target, NULL for text.
   - [value] is the text content / attribute value, NULL for elements.

   Path queries over named child chains become a single self-join chain —
   one join per step. '//' has no bounded-length SQL equivalent, so it runs
   as iterative frontier expansion, one query per tree level: exactly the
   weakness the literature reports for Edge.

   Queries are built as Sql_ast values (see Sql_build): document ids, node
   ids, names, and comparison values are bound parameters, so every query
   family here plans once and its cached plan is reused across documents
   and nodes. Kind codes stay inline — they are part of the query shape. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "edge"
let description = "single edge table (Florescu & Kossmann)"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS edge (doc INTEGER NOT NULL, source INTEGER NOT NULL, \
        ordinal INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, target INTEGER NOT NULL, \
        value TEXT)")

let create_indexes db =
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS edge_source ON edge (source)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS edge_name ON edge (name)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS edge_target ON edge (target)")

let shred_into emit ~doc ix =
  let insert ~source ~ordinal ~kind ~name ~target ~value =
    emit "edge"
      [|
        Value.Int doc;
        Value.Int source;
        Value.Int ordinal;
        Value.Text kind;
        (match name with Some n -> Value.Text n | None -> Value.Null);
        Value.Int target;
        (match value with Some v -> Value.Text v | None -> Value.Null);
      |]
  in
  for n = 1 to Index.count ix - 1 do
    let source = Index.parent ix n in
    let ordinal = Index.ordinal ix n in
    match Index.kind ix n with
    | Index.Element -> insert ~source ~ordinal ~kind:"e" ~name:(Some (Index.name ix n)) ~target:n ~value:None
    | Index.Attribute ->
      insert ~source ~ordinal ~kind:"a" ~name:(Some (Index.name ix n)) ~target:n
        ~value:(Some (Index.value ix n))
    | Index.Text -> insert ~source ~ordinal ~kind:"t" ~name:None ~target:n ~value:(Some (Index.value ix n))
    | Index.Comment ->
      insert ~source ~ordinal ~kind:"c" ~name:None ~target:n ~value:(Some (Index.value ix n))
    | Index.Pi ->
      insert ~source ~ordinal ~kind:"p" ~name:(Some (Index.name ix n)) ~target:n
        ~value:(Some (Index.value ix n))
    | Index.Document -> ()
  done

let shred_bulk session ~doc ix = shred_into (Db.session_insert session) ~doc ix

(* ------------------------------------------------------------------ *)
(* Reconstruction *)

type row = { r_source : int; r_ordinal : int; r_kind : string; r_name : string; r_target : int; r_value : string }

let fetch_all_edges db ~doc =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "edge" ]
          ~where:[ Sb.eq (Sb.col "doc") (Sb.pint b doc) ]
          (List.map
             (fun c -> Sb.proj (Sb.col c))
             [ "source"; "ordinal"; "kind"; "name"; "target"; "value" ]);
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  List.map
    (fun row ->
      {
        r_source = (match row.(0) with Value.Int i -> i | _ -> err "bad source");
        r_ordinal = (match row.(1) with Value.Int i -> i | _ -> err "bad ordinal");
        r_kind = Value.to_string row.(2);
        r_name = (match row.(3) with Value.Null -> "" | v -> Value.to_string v);
        r_target = (match row.(4) with Value.Int i -> i | _ -> err "bad target");
        r_value = (match row.(5) with Value.Null -> "" | v -> Value.to_string v);
      })
    r.Relstore.Executor.rows

let build_tree rows_by_source target_row =
  let rec build (r : row) : Dom.node =
    match r.r_kind with
    | "e" ->
      let children = Option.value ~default:[] (Hashtbl.find_opt rows_by_source r.r_target) in
      let children = List.sort (fun a b -> compare a.r_ordinal b.r_ordinal) children in
      let attrs, content = List.partition (fun c -> c.r_kind = "a") children in
      Dom.Element
        {
          Dom.tag = r.r_name;
          attrs = List.map (fun a -> Dom.attr a.r_name a.r_value) attrs;
          children = List.map build content;
        }
    | "t" -> Dom.Text r.r_value
    | "c" -> Dom.Comment r.r_value
    | "p" -> Dom.Pi { target = r.r_name; data = r.r_value }
    | "a" -> Dom.Text r.r_value
    | k -> err "unknown edge kind %s" k
  in
  build target_row

let group_by_source rows =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt tbl r.r_source) in
      Hashtbl.replace tbl r.r_source (r :: existing))
    rows;
  tbl

(* The document rebuilt from its edge rows; Binary rebuilds from the rows
   of its partitions the same way. *)
let document_of_rows ~doc rows =
  let by_source = group_by_source rows in
  match Option.value ~default:[] (Hashtbl.find_opt by_source 0) with
  | [ root_row ] -> (
    match build_tree by_source root_row with
    | Dom.Element e -> Dom.document e
    | _ -> err "root edge is not an element")
  | [] -> err "document %d is not stored" doc
  | _ -> err "document %d has multiple roots" doc

let reconstruct db ~doc = document_of_rows ~doc (fetch_all_edges db ~doc)

(* Subtree reconstruction for query results: per-node recursive fetch. The
   two query shapes are constant, so both plans cache after the first node. *)
let rec node_of_target db ~doc target =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "edge" ]
          ~where:
            [ Sb.eq (Sb.col "doc") (Sb.pint b doc); Sb.eq (Sb.col "target") (Sb.pint b target) ]
          [ Sb.proj (Sb.col "kind"); Sb.proj (Sb.col "name"); Sb.proj (Sb.col "value") ];
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  match r.Relstore.Executor.rows with
  | [ [| kind; name; value |] ] -> (
    let name = match name with Value.Null -> "" | v -> Value.to_string v in
    let value = match value with Value.Null -> "" | v -> Value.to_string v in
    match Value.to_string kind with
    | "e" ->
      let b = Sb.binder () in
      let q =
        Sb.query
          [
            Sb.select ~from:[ Sb.from "edge" ]
              ~where:
                [
                  Sb.eq (Sb.col "doc") (Sb.pint b doc);
                  Sb.eq (Sb.col "source") (Sb.pint b target);
                ]
              ~order_by:[ Sb.asc (Sb.col "ordinal") ]
              [
                Sb.proj (Sb.col "target"); Sb.proj (Sb.col "kind"); Sb.proj (Sb.col "name");
                Sb.proj (Sb.col "value");
              ];
          ]
      in
      let kids = query_built db ~params:(Sb.params b) q in
      let attrs = ref [] and content = ref [] in
      List.iter
        (fun row ->
          let t = match row.(0) with Value.Int i -> i | _ -> err "bad target" in
          match Value.to_string row.(1) with
          | "a" ->
            attrs :=
              Dom.attr (Value.to_string row.(2))
                (match row.(3) with Value.Null -> "" | v -> Value.to_string v)
              :: !attrs
          | _ -> content := node_of_target db ~doc t :: !content)
        kids.Relstore.Executor.rows;
      Dom.Element { Dom.tag = name; attrs = List.rev !attrs; children = List.rev !content }
    | "t" -> Dom.Text value
    | "c" -> Dom.Comment value
    | "p" -> Dom.Pi { target = name; data = value }
    | "a" -> Dom.Text value
    | k -> err "unknown edge kind %s" k)
  | [] -> err "no edge with target %d" target
  | _ -> err "multiple edges with target %d" target

let string_value_of_target db ~doc target =
  (* attribute/text targets carry their value inline; elements concatenate
     descendant text *)
  let node = node_of_target db ~doc target in
  Dom.string_value node

(* ------------------------------------------------------------------ *)
(* Query translation *)

(* Condition shorthands over the edge table. *)
let kind_is a k = Sb.eq (acol a "kind") (Sb.text k)
let child_of a parent = Sb.eq (acol a "source") (acol parent "target")

(* Conditions for one step's predicates. [cur] is the alias whose .target
   is the context element; [fresh] mints auxiliary aliases; [b] collects
   parameter bindings; [pdoc] is the already-bound document id. Returns
   (extra FROM aliases, extra WHERE conjuncts). *)
let pred_sql ~b ~pdoc ~cur ~fresh (p : Pathquery.pred) =
  let module P = Pathquery in
  let on_doc a = Sb.eq (acol a "doc") pdoc in
  let name_is a n = Sb.eq (acol a "name") (Sb.ptext b n) in
  match p with
  | P.Has_child c ->
    let a = fresh () in
    ([ a ], [ on_doc a; child_of a cur; kind_is a "e"; name_is a c ])
  | P.Has_attr at ->
    let a = fresh () in
    ([ a ], [ on_doc a; child_of a cur; kind_is a "a"; name_is a at ])
  | P.Attr_value (at, op, v) ->
    let a = fresh () in
    ( [ a ],
      [
        on_doc a; child_of a cur; kind_is a "a"; name_is a at;
        Sb.cmp (P.cmp_binop op) (acol a "value") (Sb.ptext b v);
      ] )
  | P.Attr_number (at, op, v) ->
    let a = fresh () in
    ( [ a ],
      [
        on_doc a; child_of a cur; kind_is a "a"; name_is a at;
        P.number_cond b op (acol a "value") v;
      ] )
  | P.Child_value (c, op, v) ->
    let a = fresh () and t = fresh () in
    ( [ a; t ],
      [
        on_doc a; child_of a cur; kind_is a "e"; name_is a c;
        on_doc t; child_of t a; kind_is t "t";
        Sb.cmp (P.cmp_binop op) (acol t "value") (Sb.ptext b v);
      ] )
  | P.Child_number (c, op, v) ->
    let a = fresh () and t = fresh () in
    ( [ a; t ],
      [
        on_doc a; child_of a cur; kind_is a "e"; name_is a c;
        on_doc t; child_of t a; kind_is t "t";
        P.number_cond b op (acol t "value") v;
      ] )

(* A pure named/wildcard child chain becomes a single join-chain SELECT.
   Returns the query and its parameter bindings. *)
let chain_query ~doc (simple : Pathquery.t) =
  let module P = Pathquery in
  let b = Sb.binder () in
  let pdoc = Sb.pint b doc in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "x%d" !counter
  in
  let froms = ref [] and wheres = ref [] in
  let add_from a = froms := a :: !froms in
  let add_where w = wheres := w :: !wheres in
  let prev = ref None in
  List.iter
    (fun (s : P.step) ->
      assert (not s.P.desc);
      let e = fresh () in
      add_from e;
      add_where (Sb.eq (acol e "doc") pdoc);
      add_where (kind_is e "e");
      (match s.P.test with
      | P.Tag n -> add_where (Sb.eq (acol e "name") (Sb.ptext b n))
      | P.Any_tag -> ());
      (match !prev with
      | None -> add_where (Sb.eq (acol e "source") (Sb.int 0))
      | Some p -> add_where (child_of e p));
      List.iter
        (fun pr ->
          let extra_from, extra_where = pred_sql ~b ~pdoc ~cur:e ~fresh pr in
          List.iter add_from extra_from;
          List.iter add_where extra_where)
        s.P.preds;
      prev := Some e)
    simple.P.steps;
  let last = match !prev with Some p -> p | None -> err "empty path" in
  let result_alias =
    match simple.P.tgt with
    | P.Elements -> last
    | P.Attr_of a ->
      let at = fresh () in
      add_from at;
      add_where (Sb.eq (acol at "doc") pdoc);
      add_where (child_of at last);
      add_where (kind_is at "a");
      add_where (Sb.eq (acol at "name") (Sb.ptext b a));
      at
    | P.Text_of ->
      let tx = fresh () in
      add_from tx;
      add_where (Sb.eq (acol tx "doc") pdoc);
      add_where (child_of tx last);
      add_where (kind_is tx "t");
      tx
  in
  let result = acol result_alias "target" in
  let q =
    Sb.query
      [
        Sb.select ~distinct:true
          ~from:(List.rev_map (fun a -> Sb.from ~alias:a "edge") !froms)
          ~where:(List.rev !wheres)
          ~order_by:[ Sb.asc result ]
          [ Sb.proj result ];
      ]
  in
  (q, Sb.params b)

(* Stepwise evaluation: paths with '//' run on Frontier, over frontiers of
   element ids ([Scheme] below). *)

(* Does element [target] satisfy a predicate? One small probe query; each
   predicate shape is one cached plan regardless of node or value. *)
let check_pred { Frontier.db; doc; sqls } target (p : Pathquery.pred) =
  let module P = Pathquery in
  let b = Sb.binder () in
  let pdoc = Sb.pint b doc and ptarget = Sb.pint b target in
  let probe ~from ~where proj_col =
    let q =
      Sb.query [ Sb.select ~from ~where ~limit:1 [ Sb.proj proj_col ] ]
    in
    int_column (run_built db ~sqls ~params:(Sb.params b) q) <> []
  in
  let base = [ Sb.eq (Sb.col "doc") pdoc; Sb.eq (Sb.col "source") ptarget ] in
  let child_pair c extra =
    (* e: named child element of the context; t: its text node *)
    probe
      ~from:[ Sb.from ~alias:"e" "edge"; Sb.from ~alias:"t" "edge" ]
      ~where:
        ([
           Sb.eq (acol "e" "doc") pdoc;
           Sb.eq (acol "e" "source") ptarget;
           kind_is "e" "e";
           Sb.eq (acol "e" "name") (Sb.ptext b c);
           Sb.eq (acol "t" "doc") pdoc;
           child_of "t" "e";
           kind_is "t" "t";
         ]
        @ extra)
      (acol "t" "target")
  in
  let labelled kind name extra =
    probe ~from:[ Sb.from "edge" ]
      ~where:
        (base
        @ [ Sb.eq (Sb.col "kind") (Sb.text kind); Sb.eq (Sb.col "name") (Sb.ptext b name) ]
        @ extra)
      (Sb.col "target")
  in
  match p with
  | P.Has_child c -> labelled "e" c []
  | P.Has_attr a -> labelled "a" a []
  | P.Attr_value (a, op, v) ->
    labelled "a" a [ Sb.cmp (P.cmp_binop op) (Sb.col "value") (Sb.ptext b v) ]
  | P.Attr_number (a, op, v) -> labelled "a" a [ P.number_cond b op (Sb.col "value") v ]
  | P.Child_value (c, op, v) ->
    child_pair c [ Sb.cmp (P.cmp_binop op) (acol "t" "value") (Sb.ptext b v) ]
  | P.Child_number (c, op, v) -> child_pair c [ P.number_cond b op (acol "t" "value") v ]

(* SELECT target FROM edge WHERE doc = ? AND kind = k AND source IN (...)
   [AND name = ?], the workhorse of frontier expansion. *)
let frontier_query { Frontier.db; doc; sqls } ~kind ?name ids =
  Frontier.batched ids (fun chunk ->
      let b = Sb.binder () in
      let pdoc = Sb.pint b doc in
      let where =
        [
          Sb.eq (Sb.col "doc") pdoc;
          Sb.eq (Sb.col "kind") (Sb.text kind);
          Sb.in_list (Sb.col "source") (List.map (Sb.pint b) chunk);
        ]
        @ (match name with Some n -> [ Sb.eq (Sb.col "name") (Sb.ptext b n) ] | None -> [])
      in
      let q = Sb.query [ Sb.select ~from:[ Sb.from "edge" ] ~where [ Sb.proj (Sb.col "target") ] ] in
      int_column (run_built db ~sqls ~params:(Sb.params b) q))

module Scheme = struct
  type node = int
  type leaf = int

  let root = 0
  let key = Fun.id
  let tag = None
  let children ctx ids name = frontier_query ctx ~kind:"e" ?name ids
  let holds = check_pred
  let attrs ctx ids a = frontier_query ctx ~kind:"a" ~name:a ids
  let texts ctx ids = frontier_query ctx ~kind:"t" ids
end

let query db ~doc (path : Xpathkit.Ast.path) : query_result =
  match Pathquery.analyze path with
  | None -> fallback_query ~reconstruct db ~doc path
  | Some simple ->
    let targets, sqls, joins =
      if Frontier.is_named_chain ~wildcards:true simple then begin
        let q, params = traced_translate ~scheme:id (fun () -> chain_query ~doc simple) in
        let sqls = ref [] and joins = ref 0 in
        let r = run_built db ~joins ~sqls ~params q in
        (int_column r, List.rev !sqls, !joins)
      end
      else begin
        let answer, sqls = Frontier.stepwise (module Scheme) db ~doc simple in
        (Frontier.ids answer, sqls, 0)
      end
    in
    {
      values = List.map (string_value_of_target db ~doc) targets;
      nodes = lazy (List.map (node_of_target db ~doc) targets);
      sql = sqls;
      joins;
      fallback = false;
    }

let mapping : Mapping.mapping =
  (module struct
    let id = id
    let description = description
    let create_schema = create_schema
    let create_indexes = create_indexes
    let shred_bulk = shred_bulk
    let reconstruct = reconstruct
    let query = query
  end)
