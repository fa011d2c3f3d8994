(* The Interval mapping (Grust 2002/2004 "accelerating XPath"): one row per
   node carrying its pre-order rank, subtree size, level, and parent.

     accel(doc, pre, size, level, kind, name, value, parent, ordinal)

   The descendant axis is a range predicate —
   [d.pre > a.pre AND d.pre <= a.pre + a.size] — so '//' costs a single
   self-join instead of Edge's per-level iteration. Every translated path is
   one SQL statement. The planner recognizes this containment pair and runs
   it as a [Plan.Staircase_join] — one ordered merge over the (pre, size)
   intervals instead of a nested-loop filter — so '//' steps stay
   sort-plus-output-linear even when both sides are large. *)

module Index = Xmlkit.Index
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "interval"
let description = "pre/size/level interval encoding (Grust)"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS accel (doc INTEGER NOT NULL, pre INTEGER NOT NULL, size \
        INTEGER NOT NULL, level INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, value TEXT, \
        parent INTEGER NOT NULL, ordinal INTEGER NOT NULL)")

let create_indexes db =
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS accel_pre ON accel (pre)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS accel_name ON accel (name)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS accel_parent ON accel (parent)")

let shred_into emit ~doc ix =
  for n = 1 to Index.count ix - 1 do
    let kind = kind_code (Index.kind ix n) in
    let name =
      match Index.kind ix n with
      | Index.Element | Index.Attribute | Index.Pi -> Value.Text (Index.name ix n)
      | _ -> Value.Null
    in
    let value =
      match Index.kind ix n with
      | Index.Element | Index.Document -> Value.Null
      | _ -> Value.Text (Index.value ix n)
    in
    emit "accel"
      [|
        Value.Int doc;
        Value.Int n;
        Value.Int (Index.size ix n);
        Value.Int (Index.level ix n);
        Value.Text kind;
        name;
        value;
        Value.Int (Index.parent ix n);
        Value.Int (Index.ordinal ix n);
      |]
  done

let shred_bulk session ~doc ix = shred_into (Db.session_insert session) ~doc ix

(* ------------------------------------------------------------------ *)
(* Reconstruction *)

let row_of_values a =
  {
    Tree.id = (match a.(0) with Value.Int i -> i | _ -> err "bad pre");
    kind = Value.to_string a.(1);
    name = (match a.(2) with Value.Null -> "" | v -> Value.to_string v);
    value = (match a.(3) with Value.Null -> "" | v -> Value.to_string v);
    parent = (match a.(4) with Value.Int i -> i | _ -> err "bad parent");
    ordinal = (match a.(5) with Value.Int i -> i | _ -> err "bad ordinal");
  }

let fetch_range db ~doc ~lo ~hi =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "accel" ]
          ~where:
            [
              Sb.eq (Sb.col "doc") (Sb.pint b doc);
              Sb.ge (Sb.col "pre") (Sb.pint b lo);
              Sb.le (Sb.col "pre") (Sb.pint b hi);
            ]
          (List.map
             (fun c -> Sb.proj (Sb.col c))
             [ "pre"; "kind"; "name"; "value"; "parent"; "ordinal" ]);
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  List.map row_of_values r.Relstore.Executor.rows

let reconstruct db ~doc = Tree.document ~doc ~top:0 (fetch_range db ~doc ~lo:1 ~hi:max_int)

let node_of_pre db ~doc pre =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "accel" ]
          ~where:[ Sb.eq (Sb.col "doc") (Sb.pint b doc); Sb.eq (Sb.col "pre") (Sb.pint b pre) ]
          [ Sb.proj (Sb.col "size") ];
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  match int_column r with
  | [ size ] -> Tree.node (fetch_range db ~doc ~lo:pre ~hi:(pre + size)) pre
  | _ -> err "node %d is not stored" pre

let string_value_of_pre db ~doc pre =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "accel" ]
          ~where:[ Sb.eq (Sb.col "doc") (Sb.pint b doc); Sb.eq (Sb.col "pre") (Sb.pint b pre) ]
          [ Sb.proj (Sb.col "size"); Sb.proj (Sb.col "kind"); Sb.proj (Sb.col "value") ];
      ]
  in
  let r = query_built db ~params:(Sb.params b) q in
  match r.Relstore.Executor.rows with
  | [ [| size; kind; value |] ] -> (
    match Value.to_string kind with
    | "e" ->
      let size = match size with Value.Int i -> i | _ -> err "bad size" in
      let b = Sb.binder () in
      let q =
        Sb.query
          [
            Sb.select ~from:[ Sb.from "accel" ]
              ~where:
                [
                  Sb.eq (Sb.col "doc") (Sb.pint b doc);
                  Sb.gt (Sb.col "pre") (Sb.pint b pre);
                  Sb.le (Sb.col "pre") (Sb.pint b (pre + size));
                  Sb.eq (Sb.col "kind") (Sb.text "t");
                ]
              ~order_by:[ Sb.asc (Sb.col "pre") ]
              [ Sb.proj (Sb.col "value") ];
          ]
      in
      let texts = query_built db ~params:(Sb.params b) q in
      String.concat "" (string_column texts)
    | _ -> ( match value with Value.Null -> "" | v -> Value.to_string v))
  | _ -> err "node %d is not stored" pre

(* ------------------------------------------------------------------ *)
(* Query translation: always a single statement (see Chain). *)

let chain =
  {
    Chain.table = (fun ~kind:_ _ -> Some "accel");
    labelled = true;
    id = "pre";
    parent = "parent";
    root = Sb.int 0;
    descendant =
      Some
        (fun ~anc d ->
          (* the interval containment test: the whole point of this scheme *)
          [
            Sb.gt (acol d "pre") (acol anc "pre");
            Sb.le (acol d "pre") (Sb.add (acol anc "pre") (acol anc "size"));
          ]);
    alias = "v";
  }

let query db ~doc (path : Xpathkit.Ast.path) : query_result =
  match Pathquery.analyze path with
  | None -> fallback_query ~reconstruct db ~doc path
  | Some simple ->
    let pres, sql, joins = Chain.run chain ~scheme:id db ~doc simple int_column in
    {
      values = List.map (string_value_of_pre db ~doc) pres;
      nodes = lazy (List.map (node_of_pre db ~doc) pres);
      sql;
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
