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

let row_of_values a =
  {
    Tree.id = Value.to_string a.(0);
    parent = Value.to_string a.(1);
    kind = Value.to_string a.(2);
    name = (match a.(3) with Value.Null -> "" | v -> Value.to_string v);
    value = (match a.(4) with Value.Null -> "" | v -> Value.to_string v);
    ordinal = (match a.(5) with Value.Int i -> i | _ -> err "bad ordinal");
  }

let row_projs = List.map (fun c -> Sb.proj (Sb.col c)) [ "label"; "parent_label"; "kind"; "name"; "value"; "ordinal" ]

let fetch_all db ~doc =
  let b = Sb.binder () in
  let where = [ Sb.eq (Sb.col "doc") (Sb.pint b doc) ] in
  let q = Sb.query [ Sb.select ~from:[ Sb.from "dewey" ] ~where row_projs ] in
  let r = query_built db ~params:(Sb.params b) q in
  List.map row_of_values r.Relstore.Executor.rows

let reconstruct db ~doc = Tree.document ~doc ~top:"" (fetch_all db ~doc)

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

let node_of_label db ~doc label = Tree.node (subtree_rows db ~doc label) label

let string_value_of_label db ~doc label =
  let rows = subtree_rows db ~doc label in
  match List.find_opt (fun r -> r.Tree.id = label) rows with
  | Some r when r.Tree.kind <> "e" -> r.Tree.value
  | Some _ ->
    (* concatenate text descendants in label order *)
    rows
    |> List.filter (fun r -> r.Tree.kind = "t")
    |> List.sort (fun a b -> compare a.Tree.id b.Tree.id)
    |> List.map (fun r -> r.Tree.value)
    |> String.concat ""
  | None -> err "no node labelled %s" label

(* ------------------------------------------------------------------ *)
(* Query translation: a single statement (see Chain); child steps join on
   parent_label, descendant steps use label-prefix LIKE over a
   concatenated pattern. *)

let chain =
  {
    Chain.table = (fun ~kind:_ _ -> Some "dewey");
    labelled = true;
    id = "label";
    parent = "parent_label";
    root = Sb.text "";
    descendant =
      Some
        (fun ~anc d ->
          (* descendant: label extends the ancestor's label *)
          [ Sb.like (acol d "label") (Sb.concat (acol anc "label") (Sb.text ".%")) ]);
    alias = "d";
  }

let query db ~doc (path : Xpathkit.Ast.path) : query_result =
  match Pathquery.analyze path with
  | None -> fallback_query ~reconstruct db ~doc path
  | Some simple ->
    let labels, sql, joins = Chain.run chain ~scheme:id db ~doc simple string_column in
    {
      values = List.map (string_value_of_label db ~doc) labels;
      nodes = lazy (List.map (node_of_label db ~doc) labels);
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
