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

module Dom = Xmlkit.Dom
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

type row = {
  r_pre : int;
  r_kind : string;
  r_name : string;
  r_value : string;
  r_parent : int;
  r_ordinal : int;
}

let row_of_values a =
  {
    r_pre = (match a.(0) with Value.Int i -> i | _ -> err "bad pre");
    r_kind = Value.to_string a.(1);
    r_name = (match a.(2) with Value.Null -> "" | v -> Value.to_string v);
    r_value = (match a.(3) with Value.Null -> "" | v -> Value.to_string v);
    r_parent = (match a.(4) with Value.Int i -> i | _ -> err "bad parent");
    r_ordinal = (match a.(5) with Value.Int i -> i | _ -> err "bad ordinal");
  }

let build_forest rows root_pre =
  let by_parent = Hashtbl.create 256 in
  let by_pre = Hashtbl.create 256 in
  List.iter
    (fun r ->
      Hashtbl.replace by_pre r.r_pre r;
      Hashtbl.replace by_parent r.r_parent
        (r :: Option.value ~default:[] (Hashtbl.find_opt by_parent r.r_parent)))
    rows;
  let rec build (r : row) : Dom.node =
    match r.r_kind with
    | "e" ->
      let children = Option.value ~default:[] (Hashtbl.find_opt by_parent r.r_pre) in
      let attrs, content = List.partition (fun c -> c.r_kind = "a") children in
      let sorted l = List.sort (fun a b -> compare a.r_ordinal b.r_ordinal) l in
      Dom.Element
        {
          Dom.tag = r.r_name;
          attrs = List.map (fun a -> Dom.attr a.r_name a.r_value) (sorted attrs);
          children = List.map build (sorted content);
        }
    | "t" | "a" -> Dom.Text r.r_value
    | "c" -> Dom.Comment r.r_value
    | "p" -> Dom.Pi { target = r.r_name; data = r.r_value }
    | k -> err "unknown kind %s" k
  in
  match Hashtbl.find_opt by_pre root_pre with
  | Some r -> build r
  | None -> err "node %d is not stored" root_pre

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

let reconstruct db ~doc =
  let rows = fetch_range db ~doc ~lo:1 ~hi:max_int in
  match List.find_opt (fun r -> r.r_parent = 0) rows with
  | Some root -> (
    match build_forest rows root.r_pre with
    | Dom.Element e -> Dom.document e
    | _ -> err "root is not an element")
  | None -> err "document %d is not stored" doc

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
  | [ size ] -> build_forest (fetch_range db ~doc ~lo:pre ~hi:(pre + size)) pre
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
(* Query translation: always a single statement. *)

let kind_is a k = Sb.eq (acol a "kind") (Sb.text k)
let child_of a parent = Sb.eq (acol a "parent") (acol parent "pre")

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

let translate ~doc (simple : Pathquery.t) =
  let module P = Pathquery in
  let b = Sb.binder () in
  let pdoc = Sb.pint b doc in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "v%d" !counter
  in
  let froms = ref [] and wheres = ref [] in
  let add_from a = froms := a :: !froms in
  let add_where w = wheres := w :: !wheres in
  let prev = ref None in
  List.iter
    (fun (s : P.step) ->
      let e = fresh () in
      add_from e;
      add_where (Sb.eq (acol e "doc") pdoc);
      add_where (kind_is e "e");
      (match s.P.test with
      | P.Tag n -> add_where (Sb.eq (acol e "name") (Sb.ptext b n))
      | P.Any_tag -> ());
      (match (!prev, s.P.desc) with
      | None, false -> add_where (Sb.eq (acol e "parent") (Sb.int 0))
      | None, true -> ()  (* any element in the document *)
      | Some p, false -> add_where (child_of e p)
      | Some p, true ->
        (* the interval containment test: the whole point of this scheme *)
        add_where (Sb.gt (acol e "pre") (acol p "pre"));
        add_where (Sb.le (acol e "pre") (Sb.add (acol p "pre") (acol p "size"))));
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
  let result = acol result_alias "pre" in
  let q =
    Sb.query
      [
        Sb.select ~distinct:true
          ~from:(List.rev_map (fun a -> Sb.from ~alias:a "accel") !froms)
          ~where:(List.rev !wheres)
          ~order_by:[ Sb.asc result ]
          [ Sb.proj result ];
      ]
  in
  (q, Sb.params b)

let query db ~doc (path : Xpathkit.Ast.path) : query_result =
  match Pathquery.analyze path with
  | None -> fallback_query ~reconstruct db ~doc path
  | Some simple ->
    let q, params = traced_translate ~scheme:id (fun () -> translate ~doc simple) in
    let sqls = ref [] and joins = ref 0 in
    let pres = int_column (run_built db ~joins ~sqls ~params q) in
    {
      values = List.map (string_value_of_pre db ~doc) pres;
      nodes = lazy (List.map (node_of_pre db ~doc) pres);
      sql = List.rev !sqls;
      joins = !joins;
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
