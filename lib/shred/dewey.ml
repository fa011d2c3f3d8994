(* The Dewey-order mapping (Tatarinov et al. 2002): each node's key is its
   materialized root-to-node ordinal path, e.g. "a1.a3.b12".

     dewey(doc, label, parent_label, kind, name, value, level, ordinal)

   Components use a variable-width order-preserving encoding — a digit-count
   letter ('a' = 1 digit, 'b' = 2, ...) followed by the decimal ordinal — so
   plain string order is document order at any fanout ("b10" > "a9", and no
   sibling component is a proper prefix of another). Attribute components
   carry a '!' prefix to keep them out of the element component space. Child
   steps are equality joins on [parent_label]; descendant steps are
   prefix-LIKE predicates over the label — cheap subtree extraction,
   expensive comparisons, exactly the trade-off the paper reports. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "dewey"
let description = "Dewey order labels (Tatarinov et al.)"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS dewey (doc INTEGER NOT NULL, label TEXT NOT NULL, \
        parent_label TEXT NOT NULL, kind TEXT NOT NULL, name TEXT, value TEXT, level INTEGER \
        NOT NULL, ordinal INTEGER NOT NULL)")

let create_indexes db =
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS dewey_label ON dewey (label)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS dewey_parent ON dewey (parent_label)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS dewey_name ON dewey (name)")

(* Order-preserving component encoding: the digit count as a letter
   ('a' + digits - 1) followed by the decimal ordinal, so "b10" sorts after
   "a9" and components of equal first letter have equal length — no sibling
   component is a proper prefix of another. Attribute components add a '!'
   prefix: '!' < 'a' in ASCII, so an element's attributes sort before its
   content children, and '!' < '.' keeps them before any descendant's
   components — plain string order stays document order. *)
let encode_ordinal ordinal =
  if ordinal < 0 then err "Dewey ordinal must be non-negative (got %d)" ordinal;
  let digits = string_of_int ordinal in
  let d = String.length digits in
  if d > 26 then err "Dewey ordinal out of range (got %d)" ordinal;
  String.make 1 (Char.chr (Char.code 'a' + d - 1)) ^ digits

let component ~attr ordinal =
  let c = encode_ordinal ordinal in
  if attr then "!" ^ c else c

(* Inverse of [component]: the ordinal of one label component. *)
let component_ordinal comp =
  let comp =
    if String.length comp > 0 && comp.[0] = '!' then String.sub comp 1 (String.length comp - 1)
    else comp
  in
  let n = String.length comp in
  if n < 2 || comp.[0] < 'a' || comp.[0] > 'z' then err "malformed Dewey component %S" comp;
  let d = Char.code comp.[0] - Char.code 'a' + 1 in
  if n <> d + 1 then err "malformed Dewey component %S" comp;
  match int_of_string_opt (String.sub comp 1 d) with
  | Some i when i >= 0 -> i
  | _ -> err "malformed Dewey component %S" comp

let shred_into emit ~doc ix =
  (* labels.(n) = Dewey label of node n *)
  let labels = Array.make (Index.count ix) "" in
  for n = 1 to Index.count ix - 1 do
    let parent = Index.parent ix n in
    let parent_label = labels.(parent) in
    let attr = Index.kind ix n = Index.Attribute in
    let comp = component ~attr (Index.ordinal ix n) in
    let label = if parent_label = "" then comp else parent_label ^ "." ^ comp in
    labels.(n) <- label;
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
    emit "dewey"
      [|
        Value.Int doc;
        Value.Text label;
        Value.Text parent_label;
        Value.Text (kind_code (Index.kind ix n));
        name;
        value;
        Value.Int (Index.level ix n);
        Value.Int (Index.ordinal ix n);
      |]
  done

let shred_bulk session ~doc ix = shred_into (Db.session_insert session) ~doc ix

(* ------------------------------------------------------------------ *)
(* Reconstruction *)

type row = {
  r_label : string;
  r_parent : string;
  r_kind : string;
  r_name : string;
  r_value : string;
  r_ordinal : int;
}

let row_of_values a =
  {
    r_label = Value.to_string a.(0);
    r_parent = Value.to_string a.(1);
    r_kind = Value.to_string a.(2);
    r_name = (match a.(3) with Value.Null -> "" | v -> Value.to_string v);
    r_value = (match a.(4) with Value.Null -> "" | v -> Value.to_string v);
    r_ordinal = (match a.(5) with Value.Int i -> i | _ -> err "bad ordinal");
  }

let build_forest rows root_label =
  let by_parent = Hashtbl.create 256 in
  let by_label = Hashtbl.create 256 in
  List.iter
    (fun r ->
      Hashtbl.replace by_label r.r_label r;
      Hashtbl.replace by_parent r.r_parent
        (r :: Option.value ~default:[] (Hashtbl.find_opt by_parent r.r_parent)))
    rows;
  let rec build r : Dom.node =
    match r.r_kind with
    | "e" ->
      let children = Option.value ~default:[] (Hashtbl.find_opt by_parent r.r_label) in
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
  match Hashtbl.find_opt by_label root_label with
  | Some r -> build r
  | None -> err "no node labelled %s" root_label

let row_projs = List.map (fun c -> Sb.proj (Sb.col c)) [ "label"; "parent_label"; "kind"; "name"; "value"; "ordinal" ]

let fetch_all db ~doc =
  let b = Sb.binder () in
  let where = [ Sb.eq (Sb.col "doc") (Sb.pint b doc) ] in
  let q = Sb.query [ Sb.select ~from:[ Sb.from "dewey" ] ~where row_projs ] in
  let r = query_built db ~params:(Sb.params b) q in
  List.map row_of_values r.Relstore.Executor.rows

let reconstruct db ~doc =
  let rows = fetch_all db ~doc in
  match List.find_opt (fun r -> r.r_parent = "") rows with
  | Some root -> (
    match build_forest rows root.r_label with
    | Dom.Element e -> Dom.document e
    | _ -> err "root is not an element")
  | None -> err "document %d is not stored" doc

(* Subtree of one label: the Dewey strength — a prefix scan over the label
   index. Two statements (exact + prefix) so each can use the index; an OR
   would force a full scan. *)
let subtree_rows db ~doc label =
  let fetch cond_of =
    let b = Sb.binder () in
    let where = [ Sb.eq (Sb.col "doc") (Sb.pint b doc); cond_of b ] in
    let q = Sb.query [ Sb.select ~from:[ Sb.from "dewey" ] ~where row_projs ] in
    let r = query_built db ~params:(Sb.params b) q in
    List.map row_of_values r.Relstore.Executor.rows
  in
  fetch (fun b -> Sb.eq (Sb.col "label") (Sb.ptext b label))
  (* descendants as an explicit label range with both ends bound as
     parameters: one cached plan for every label (a literal LIKE pattern
     would bake the label into the statement text), and the range bounds
     still drive the label index *)
  @ fetch (fun b ->
        let prefix = label ^ "." in
        let lower = Sb.ge (Sb.col "label") (Sb.ptext b prefix) in
        match Relstore.Planner.like_prefix_successor prefix with
        | Some stop ->
          Relstore.Sql_ast.Binop (Relstore.Sql_ast.And, lower, Sb.lt (Sb.col "label") (Sb.ptext b stop))
        | None -> lower)

let node_of_label db ~doc label = build_forest (subtree_rows db ~doc label) label

let string_value_of_label db ~doc label =
  let rows = subtree_rows db ~doc label in
  match List.find_opt (fun r -> r.r_label = label) rows with
  | Some r when r.r_kind <> "e" -> r.r_value
  | Some _ ->
    (* concatenate text descendants in label order *)
    rows
    |> List.filter (fun r -> r.r_kind = "t")
    |> List.sort (fun a b -> compare a.r_label b.r_label)
    |> List.map (fun r -> r.r_value)
    |> String.concat ""
  | None -> err "no node labelled %s" label

(* ------------------------------------------------------------------ *)
(* Query translation: single statement; child steps join on parent_label,
   descendant steps use label-prefix LIKE over a concatenated pattern. *)

let kind_is a k = Sb.eq (acol a "kind") (Sb.text k)
let child_of a parent = Sb.eq (acol a "parent_label") (acol parent "label")

let pred_sql ~b ~pdoc ~cur ~fresh (p : Pathquery.pred) =
  let module P = Pathquery in
  let child_conds a ~kind ~name =
    [
      Sb.eq (acol a "doc") pdoc;
      child_of a cur;
      kind_is a kind;
      Sb.eq (acol a "name") (Sb.ptext b name);
    ]
  in
  match p with
  | P.Has_child c ->
    let a = fresh () in
    ([ a ], child_conds a ~kind:"e" ~name:c)
  | P.Has_attr at ->
    let a = fresh () in
    ([ a ], child_conds a ~kind:"a" ~name:at)
  | P.Attr_value (at, op, v) ->
    let a = fresh () in
    ( [ a ],
      child_conds a ~kind:"a" ~name:at
      @ [ Sb.cmp (P.cmp_binop op) (acol a "value") (Sb.ptext b v) ] )
  | P.Attr_number (at, op, v) ->
    let a = fresh () in
    ( [ a ],
      child_conds a ~kind:"a" ~name:at
      @ [ P.number_cond b op (acol a "value") v ] )
  | P.Child_value (c, op, v) ->
    let a = fresh () and t = fresh () in
    ( [ a; t ],
      child_conds a ~kind:"e" ~name:c
      @ [
          Sb.eq (acol t "doc") pdoc;
          child_of t a;
          kind_is t "t";
          Sb.cmp (P.cmp_binop op) (acol t "value") (Sb.ptext b v);
        ] )
  | P.Child_number (c, op, v) ->
    let a = fresh () and t = fresh () in
    ( [ a; t ],
      child_conds a ~kind:"e" ~name:c
      @ [
          Sb.eq (acol t "doc") pdoc;
          child_of t a;
          kind_is t "t";
          P.number_cond b op (acol t "value") v;
        ] )

let translate ~doc (simple : Pathquery.t) =
  let module P = Pathquery in
  let b = Sb.binder () in
  let pdoc = Sb.pint b doc in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "d%d" !counter
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
      | None, false -> add_where (Sb.eq (acol e "parent_label") (Sb.text ""))
      | None, true -> ()  (* any element *)
      | Some p, false -> add_where (child_of e p)
      | Some p, true ->
        (* descendant: label extends the ancestor's label *)
        add_where (Sb.like (acol e "label") (Sb.concat (acol p "label") (Sb.text ".%"))));
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
  let result = acol result_alias "label" in
  let q =
    Sb.query
      [
        Sb.select ~distinct:true
          ~from:(List.rev_map (fun a -> Sb.from ~alias:a "dewey") !froms)
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
    let labels = string_column (run_built db ~joins ~sqls ~params q) in
    {
      values = List.map (string_value_of_label db ~doc) labels;
      nodes = lazy (List.map (node_of_label db ~doc) labels);
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
