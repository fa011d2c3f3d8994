(* The Binary mapping: the Edge table horizontally partitioned by label —
   one table per element tag, one per attribute name, one for character
   data. A registry table maps labels to their (sanitized, uniquified)
   table names.

     bt_<tag>  (doc, source, ordinal, target)          element edges
     ba_<name> (doc, source, ordinal, target, value)   attribute edges
     b_cdata   (doc, source, ordinal, target, value)   text nodes
     b_misc    (doc, source, ordinal, kind, name, target, value)
     b_labels  (kind, label, tbl)                      registry

   Named child chains join small per-tag tables (the Binary win); wildcard
   and '//' steps must consult every element table (the Binary pain), which
   this implementation does stepwise, one query per table per frontier. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "binary"
let description = "one table per element/attribute label (partitioned edge)"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS b_labels (kind TEXT NOT NULL, label TEXT NOT NULL, tbl \
        TEXT NOT NULL)");
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS b_cdata (doc INTEGER NOT NULL, source INTEGER NOT NULL, \
        ordinal INTEGER NOT NULL, target INTEGER NOT NULL, value TEXT)");
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS b_misc (doc INTEGER NOT NULL, source INTEGER NOT NULL, \
        ordinal INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, target INTEGER NOT NULL, \
        value TEXT)")

(* Registry access. [kind] is "e" or "a". *)
let label_table db ~kind label =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "b_labels" ]
          ~where:
            [ Sb.eq (Sb.col "kind") (Sb.ptext b kind); Sb.eq (Sb.col "label") (Sb.ptext b label) ]
          [ Sb.proj (Sb.col "tbl") ];
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  match string_column r with [ t ] -> Some t | [] -> None | _ -> err "duplicate label %s" label

let all_label_tables db ~kind =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "b_labels" ]
          ~where:[ Sb.eq (Sb.col "kind") (Sb.ptext b kind) ]
          ~order_by:[ Sb.asc (Sb.col "label") ]
          [ Sb.proj (Sb.col "label"); Sb.proj (Sb.col "tbl") ];
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  List.map
    (fun row -> (Value.to_string row.(0), Value.to_string row.(1)))
    r.Relstore.Executor.rows

let ensure_label_table db ~kind label =
  match label_table db ~kind label with
  | Some t -> t
  | None ->
    (* uniquify sanitized names: hat and h_t would collide *)
    let base = Printf.sprintf "b%s_%s" kind (sanitize label) in
    let existing = List.map snd (all_label_tables db ~kind:"e") @ List.map snd (all_label_tables db ~kind:"a") in
    let rec unique candidate n =
      if List.mem candidate existing then unique (Printf.sprintf "%s_%d" base n) (n + 1)
      else candidate
    in
    let tbl = unique base 1 in
    (match kind with
    | "e" ->
      ignore
        (Db.exec db
           (Printf.sprintf
              "CREATE TABLE %s (doc INTEGER NOT NULL, source INTEGER NOT NULL, ordinal \
               INTEGER NOT NULL, target INTEGER NOT NULL)"
              tbl))
    | "a" ->
      ignore
        (Db.exec db
           (Printf.sprintf
              "CREATE TABLE %s (doc INTEGER NOT NULL, source INTEGER NOT NULL, ordinal \
               INTEGER NOT NULL, target INTEGER NOT NULL, value TEXT)"
              tbl))
    | k -> err "bad label kind %s" k);
    Db.insert_row_array db "b_labels" [| Value.Text kind; Value.Text label; Value.Text tbl |];
    tbl

let create_indexes db =
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS b_cdata_source ON b_cdata (source)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS b_misc_source ON b_misc (source)");
  List.iter
    (fun kind ->
      List.iter
        (fun (_, tbl) ->
          ignore
            (Db.exec db
               (Printf.sprintf "CREATE INDEX IF NOT EXISTS %s_source ON %s (source)" tbl tbl));
          ignore
            (Db.exec db
               (Printf.sprintf "CREATE INDEX IF NOT EXISTS %s_target ON %s (target)" tbl tbl)))
        (all_label_tables db ~kind))
    [ "e"; "a" ]

(* Per-node rows go through the bulk session's [emit]; the label registry
   and its DDL stay on [db] — mid-shred lookups read b_labels by
   sequential scan, which sees appended rows. *)
let shred_into emit db ~doc ix =
  for n = 1 to Index.count ix - 1 do
    let source = Index.parent ix n in
    let ordinal = Index.ordinal ix n in
    match Index.kind ix n with
    | Index.Element ->
      let tbl = ensure_label_table db ~kind:"e" (Index.name ix n) in
      emit tbl [| Value.Int doc; Value.Int source; Value.Int ordinal; Value.Int n |]
    | Index.Attribute ->
      let tbl = ensure_label_table db ~kind:"a" (Index.name ix n) in
      emit tbl
        [| Value.Int doc; Value.Int source; Value.Int ordinal; Value.Int n; Value.Text (Index.value ix n) |]
    | Index.Text ->
      emit "b_cdata"
        [| Value.Int doc; Value.Int source; Value.Int ordinal; Value.Int n; Value.Text (Index.value ix n) |]
    | Index.Comment ->
      emit "b_misc"
        [|
          Value.Int doc; Value.Int source; Value.Int ordinal; Value.Text "c"; Value.Null;
          Value.Int n; Value.Text (Index.value ix n);
        |]
    | Index.Pi ->
      emit "b_misc"
        [|
          Value.Int doc; Value.Int source; Value.Int ordinal; Value.Text "p";
          Value.Text (Index.name ix n); Value.Int n; Value.Text (Index.value ix n);
        |]
    | Index.Document -> ()
  done

let shred_bulk session ~doc ix =
  shred_into (Db.session_insert session) (Db.session_db session) ~doc ix

(* ------------------------------------------------------------------ *)
(* Reconstruction: merge all partitions back into edge rows. *)

(* SELECT [cols] FROM tbl WHERE doc = ? [AND source = ?] [AND target = ?].
   One statement shape per partition table; ids are bound parameters. *)
let fetch_cols db ~doc ?source ?target tbl cols =
  let b = Sb.binder () in
  let where =
    [ Sb.eq (Sb.col "doc") (Sb.pint b doc) ]
    @ (match source with Some s -> [ Sb.eq (Sb.col "source") (Sb.pint b s) ] | None -> [])
    @ (match target with Some t -> [ Sb.eq (Sb.col "target") (Sb.pint b t) ] | None -> [])
  in
  let q =
    Sb.query
      [ Sb.select ~from:[ Sb.from tbl ] ~where (List.map (fun c -> Sb.proj (Sb.col c)) cols) ]
  in
  (query_built db ~params:(Sb.params b) q).Relstore.Executor.rows

let fetch_all db ~doc =
  let int = function Value.Int i -> i | _ -> err "bad id" in
  let text i (a : Value.t array) = match a.(i) with Value.Null -> "" | v -> Value.to_string v in
  (* one partition's rows, read as (source, ordinal, target, extra cols) *)
  let rows tbl cols ~kind ~name ~value =
    List.map
      (fun a ->
        {
          Tree.parent = int a.(0);
          ordinal = int a.(1);
          kind = kind a;
          name = name a;
          id = int a.(2);
          value = value a;
        })
      (fetch_cols db ~doc tbl ([ "source"; "ordinal"; "target" ] @ cols))
  in
  let labelled kind cols value =
    List.concat_map
      (fun (label, tbl) -> rows tbl cols ~kind:(fun _ -> kind) ~name:(fun _ -> label) ~value)
      (all_label_tables db ~kind)
  in
  labelled "e" [] (fun _ -> "")
  @ labelled "a" [ "value" ] (text 3)
  @ rows "b_cdata" [ "value" ] ~kind:(fun _ -> "t") ~name:(fun _ -> "") ~value:(text 3)
  @ rows "b_misc" [ "value"; "kind"; "name" ] ~kind:(text 4) ~name:(text 5) ~value:(text 3)

let reconstruct db ~doc = Tree.document ~doc ~top:0 (fetch_all db ~doc)

(* Subtree of one node, via repeated per-source fetches. *)
let rec node_of_target db ~doc ~kind ~name ~value target : Dom.node =
  match kind with
  | "t" | "a" -> Dom.Text value
  | "c" -> Dom.Comment value
  | "p" -> Dom.Pi { target = name; data = value }
  | "e" ->
    let attrs = ref [] and content = ref [] in
    List.iter
      (fun (label, tbl) ->
        List.iter
          (fun a ->
            let t = match a.(0) with Value.Int i -> i | _ -> err "bad target" in
            let o = match a.(1) with Value.Int i -> i | _ -> err "bad ordinal" in
            content := (o, node_of_target db ~doc ~kind:"e" ~name:label ~value:"" t) :: !content)
          (fetch_cols db ~doc ~source:target tbl [ "target"; "ordinal" ]))
      (all_label_tables db ~kind:"e");
    List.iter
      (fun (label, tbl) ->
        List.iter
          (fun a ->
            let o = match a.(0) with Value.Int i -> i | _ -> err "bad ordinal" in
            attrs := (o, Dom.attr label (Value.to_string a.(1))) :: !attrs)
          (fetch_cols db ~doc ~source:target tbl [ "ordinal"; "value" ]))
      (all_label_tables db ~kind:"a");
    List.iter
      (fun a ->
        let o = match a.(0) with Value.Int i -> i | _ -> err "bad ordinal" in
        content := (o, Dom.Text (Value.to_string a.(1))) :: !content)
      (fetch_cols db ~doc ~source:target "b_cdata" [ "ordinal"; "value" ]);
    List.iter
      (fun a ->
        let o = match a.(0) with Value.Int i -> i | _ -> err "bad ordinal" in
        let node =
          match Value.to_string a.(1) with
          | "c" -> Dom.Comment (Value.to_string a.(3))
          | _ -> Dom.Pi { target = Value.to_string a.(2); data = Value.to_string a.(3) }
        in
        content := (o, node) :: !content)
      (fetch_cols db ~doc ~source:target "b_misc" [ "ordinal"; "kind"; "name"; "value" ]);
    Dom.Element
      {
        Dom.tag = name;
        attrs = List.map snd (List.sort compare !attrs);
        children = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !content);
      }
  | k -> err "unknown kind %s" k

(* Locate a node's (kind, name, value) by target id — scans partitions. *)
let describe_target db ~doc target =
  let find_in tbl cols = fetch_cols db ~doc ~target tbl cols in
  let rec try_elements = function
    | [] -> None
    | (label, tbl) :: rest ->
      if find_in tbl [ "target" ] <> [] then Some ("e", label, "") else try_elements rest
  in
  let rec try_attrs = function
    | [] -> None
    | (label, tbl) :: rest -> (
      match find_in tbl [ "value" ] with
      | [ [| v |] ] -> Some ("a", label, Value.to_string v)
      | _ -> try_attrs rest)
  in
  match try_elements (all_label_tables db ~kind:"e") with
  | Some d -> d
  | None -> (
    match try_attrs (all_label_tables db ~kind:"a") with
    | Some d -> d
    | None -> (
      match find_in "b_cdata" [ "value" ] with
      | [ [| v |] ] -> ("t", "", Value.to_string v)
      | _ -> (
        match find_in "b_misc" [ "kind"; "name"; "value" ] with
        | [ [| k; n; v |] ] ->
          ( Value.to_string k,
            (match n with Value.Null -> "" | n -> Value.to_string n),
            Value.to_string v )
        | _ -> err "no node with target %d" target)))

(* ------------------------------------------------------------------ *)
(* Query translation *)

(* A named child chain is one statement joining the per-label tables (see
   Chain); a table fixes its label, so no alias tests kind or name, and a
   label never stored makes the answer empty. *)
let chain db =
  {
    Chain.table =
      (fun ~kind name ->
        match (kind, name) with
        | "t", _ -> Some "b_cdata"
        | _, Some label -> label_table db ~kind label
        | _, None -> err "wildcard in chain");
    labelled = false;
    id = "target";
    parent = "source";
    root = Sb.int 0;
    descendant = None;
    alias = "x";
  }

(* Edges here live in per-label tables, so [child_of] links alias.source to
   the parent alias's target; kind/name conditions are implied by the table. *)
let child_of a parent = Sb.eq (acol a "source") (acol parent "target")

(* Stepwise evaluation (Frontier) for '//' and wildcards: each step
   consults one table per candidate tag — the partitioning tax. *)

(* SELECT target FROM partition WHERE doc = ? AND source IN (?...) *)
let sources_in { Frontier.db; doc; sqls } tbl ids =
  Frontier.batched ids (fun chunk ->
      let b = Sb.binder () in
      let where =
        [
          Sb.eq (Sb.col "doc") (Sb.pint b doc);
          Sb.in_list (Sb.col "source") (List.map (Sb.pint b) chunk);
        ]
      in
      let q = Sb.query [ Sb.select ~from:[ Sb.from tbl ] ~where [ Sb.proj (Sb.col "target") ] ] in
      int_column (run_built db ~sqls ~params:(Sb.params b) q))

(* Does element [target] satisfy a predicate? A probe on the label's table;
   a label never stored means the predicate cannot hold. *)
let check_pred { Frontier.db; doc; sqls } target (p : Pathquery.pred) =
  let module P = Pathquery in
  let probe ~b ~from ~where proj =
    let q = Sb.query [ Sb.select ~from ~where ~limit:1 [ Sb.proj proj ] ] in
    int_column (run_built db ~sqls ~params:(Sb.params b) q) <> []
  in
  (* one-table probe on (doc, source) plus branch-specific conditions *)
  let simple_probe tbl extra =
    let b = Sb.binder () in
    let base =
      [ Sb.eq (Sb.col "doc") (Sb.pint b doc); Sb.eq (Sb.col "source") (Sb.pint b target) ]
    in
    probe ~b ~from:[ Sb.from tbl ] ~where:(base @ extra b) (Sb.col "target")
  in
  let child_text_probe tbl extra =
    let b = Sb.binder () in
    let where =
      [
        Sb.eq (acol "e" "doc") (Sb.pint b doc);
        Sb.eq (acol "e" "source") (Sb.pint b target);
        Sb.eq (acol "t" "doc") (Sb.pint b doc);
        child_of "t" "e";
      ]
      @ extra b
    in
    probe ~b ~from:[ Sb.from ~alias:"e" tbl; Sb.from ~alias:"t" "b_cdata" ] ~where (acol "t" "target")
  in
  let on kind label k = match label_table db ~kind label with None -> false | Some tbl -> k tbl in
  match p with
  | P.Has_child c -> on "e" c (fun tbl -> simple_probe tbl (fun _ -> []))
  | P.Has_attr a -> on "a" a (fun tbl -> simple_probe tbl (fun _ -> []))
  | P.Attr_value (a, op, v) ->
    on "a" a (fun tbl ->
        simple_probe tbl (fun b -> [ Sb.cmp (P.cmp_binop op) (Sb.col "value") (Sb.ptext b v) ]))
  | P.Attr_number (a, op, v) ->
    on "a" a (fun tbl -> simple_probe tbl (fun b -> [ P.number_cond b op (Sb.col "value") v ]))
  | P.Child_value (c, op, v) ->
    on "e" c (fun tbl ->
        child_text_probe tbl (fun b ->
            [ Sb.cmp (P.cmp_binop op) (acol "t" "value") (Sb.ptext b v) ]))
  | P.Child_number (c, op, v) ->
    on "e" c (fun tbl ->
        child_text_probe tbl (fun b -> [ P.number_cond b op (acol "t" "value") v ]))

module Scheme = struct
  type node = int
  type leaf = int

  let root = 0
  let key = Fun.id
  let tag = None

  let children ctx ids name =
    let tables =
      match name with
      | Some n -> (
        match label_table ctx.Frontier.db ~kind:"e" n with Some t -> [ (n, t) ] | None -> [])
      | None -> all_label_tables ctx.Frontier.db ~kind:"e"
    in
    List.concat_map (fun (_, tbl) -> sources_in ctx tbl ids) tables

  let holds = check_pred

  let attrs ctx ids a =
    match label_table ctx.Frontier.db ~kind:"a" a with
    | None -> []
    | Some tbl -> sources_in ctx tbl ids

  let texts ctx ids = sources_in ctx "b_cdata" ids
end

let materialize db ~doc targets sqls joins =
  let node_of t =
    let kind, name, value = describe_target db ~doc t in
    node_of_target db ~doc ~kind ~name ~value t
  in
  {
    values =
      List.map
        (fun t ->
          let kind, name, value = describe_target db ~doc t in
          match kind with
          | "e" -> Dom.string_value (node_of_target db ~doc ~kind ~name ~value t)
          | _ -> value)
        targets;
    nodes = lazy (List.map node_of targets);
    sql = sqls;
    joins;
    fallback = false;
  }

let query db ~doc (path : Xpathkit.Ast.path) : query_result =
  match Pathquery.analyze path with
  | None -> fallback_query ~reconstruct db ~doc path
  | Some simple ->
    if Frontier.is_named_chain ~wildcards:false simple then
      let targets, sqls, joins = Chain.run (chain db) ~scheme:id db ~doc simple int_column in
      materialize db ~doc targets sqls joins
    else
      let answer, sqls = Frontier.stepwise (module Scheme) db ~doc simple in
      materialize db ~doc (Frontier.ids answer) sqls 0

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
