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
        Tree.parent = (match row.(0) with Value.Int i -> i | _ -> err "bad source");
        ordinal = (match row.(1) with Value.Int i -> i | _ -> err "bad ordinal");
        kind = Value.to_string row.(2);
        name = (match row.(3) with Value.Null -> "" | v -> Value.to_string v);
        id = (match row.(4) with Value.Int i -> i | _ -> err "bad target");
        value = (match row.(5) with Value.Null -> "" | v -> Value.to_string v);
      })
    r.Relstore.Executor.rows

let reconstruct db ~doc = Tree.document ~doc ~top:0 (fetch_all_edges db ~doc)

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

(* A named or wildcard child chain is one join-chain statement over the
   edge table (see Chain). *)
let chain =
  {
    Chain.table = (fun ~kind:_ _ -> Some "edge");
    labelled = true;
    id = "target";
    parent = "source";
    root = Sb.int 0;
    descendant = None;
    alias = "x";
  }

let kind_is a k = Sb.eq (acol a "kind") (Sb.text k)
let child_of a parent = Sb.eq (acol a "source") (acol parent "target")

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
      if Frontier.is_named_chain ~wildcards:true simple then
        Chain.run chain ~scheme:id db ~doc simple int_column
      else
        let answer, sqls = Frontier.stepwise (module Scheme) db ~doc simple in
        (Frontier.ids answer, sqls, 0)
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
