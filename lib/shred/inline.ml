(* The DTD-inlining mapping (Shanmugasundaram et al. 1999, "shared
   inlining"). The DTD's element-type graph decides the relational schema:

   - an element type gets its own table when it is the root, has in-degree
     >= 2 (shared), is set-valued anywhere (a '*' edge after content-model
     simplification), or is recursive;
   - every other type is inlined into its nearest tabled ancestor as a
     group of columns (id / ordinal / pcdata / attributes), recursively.

   Unlike the generic mappings this one is parameterized by a DTD, so it is
   constructed with [make dtd] rather than registered statically. Documents
   must conform to the DTD (data-centric: no mixed content). *)

module Dtd = Xmlkit.Dtd
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

(* ------------------------------------------------------------------ *)
(* Schema derivation *)

type inline_node = {
  in_type : string;  (* element type *)
  in_tag : string;  (* tag that reaches it (= in_type) *)
  in_quant : Dtd.quant;  (* relative to its parent *)
  col_id : string;  (* id column, "id" for the table's own node *)
  col_ord : string;
  col_pcdata : string option;
  col_attrs : (string * string) list;  (* attribute name -> column *)
  children : child_spec list;  (* in DTD field order *)
}

and child_spec = Inlined of inline_node | Tabled of string  (* type name *)

type table_info = { t_type : string; t_name : string; root_node : inline_node }

type layout = {
  dtd : Dtd.t;
  tables : table_info list;  (* root type first *)
  root_type : string;
}

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let table_of layout ty =
  match List.find_opt (fun t -> String.equal t.t_type ty) layout.tables with
  | Some t -> t
  | None -> err "no table for element type %s" ty

(* Which element types require their own table. *)
let shared_types (dtd : Dtd.t) root_type =
  let names = Dtd.element_names dtd in
  let edges = Dtd.edges dtd in
  let in_parents ty =
    List.sort_uniq compare (List.filter_map (fun (p, c, _) -> if c = ty then Some p else None) edges)
  in
  let starred ty = List.exists (fun (_, c, q) -> c = ty && q = Dtd.QStar) edges in
  (* recursive: ty reachable from ty *)
  let successors ty = List.filter_map (fun (p, c, _) -> if p = ty then Some c else None) edges in
  let reachable_from ty =
    let seen = Hashtbl.create 16 in
    let rec go t =
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.add seen s ();
            go s
          end)
        (successors t)
    in
    go ty;
    seen
  in
  List.filter
    (fun ty ->
      String.equal ty root_type
      || List.length (in_parents ty) >= 2
      || List.length (in_parents ty) = 0
      || starred ty
      || Hashtbl.mem (reachable_from ty) ty)
    names

let derive_layout (dtd : Dtd.t) : layout =
  let root_type =
    match dtd.Dtd.root with
    | Some r -> r
    | None -> err "the DTD declares no elements"
  in
  let shared = shared_types dtd root_type in
  let is_shared ty = List.mem ty shared in
  let decl ty =
    match Dtd.find_element dtd ty with
    | Some d -> d
    | None -> err "element type %s is referenced but not declared" ty
  in
  (* per-table unique column names *)
  let build_table ty =
    let used = Hashtbl.create 32 in
    let unique base =
      let rec go candidate n =
        if Hashtbl.mem used candidate then go (Printf.sprintf "%s_%d" base n) (n + 1)
        else begin
          Hashtbl.add used candidate ();
          candidate
        end
      in
      go base 1
    in
    List.iter (fun c -> Hashtbl.add used c ()) [ "doc"; "id"; "parent_id"; "ordinal" ];
    let rec build_node ~prefix ~tag ~quant node_ty : inline_node =
      let simple = Dtd.simplify (decl node_ty).Dtd.content in
      let col_id = if prefix = "" then "id" else unique (prefix ^ "id") in
      let col_ord = if prefix = "" then "ordinal" else unique (prefix ^ "ord") in
      let col_pcdata =
        if simple.Dtd.has_pcdata then Some (unique (if prefix = "" then "v" else prefix ^ "v"))
        else None
      in
      let col_attrs =
        List.map
          (fun (a : Dtd.attribute) -> (a.Dtd.att_name, unique (prefix ^ "a_" ^ sanitize a.Dtd.att_name)))
          (Dtd.find_attributes dtd node_ty)
      in
      let children =
        List.map
          (fun (child_ty, q) ->
            if is_shared child_ty then Tabled child_ty
            else
              Inlined
                (build_node
                   ~prefix:(prefix ^ "c_" ^ sanitize child_ty ^ "_")
                   ~tag:child_ty ~quant:q child_ty))
          simple.Dtd.fields
      in
      { in_type = node_ty; in_tag = tag; in_quant = quant; col_id; col_ord; col_pcdata; col_attrs; children }
    in
    build_node ~prefix:"" ~tag:ty ~quant:Dtd.One ty
  in
  let taken = ref [] in
  let tables =
    List.map
      (fun ty ->
        let base = "inl_" ^ sanitize ty in
        let rec unique candidate n =
          if List.mem candidate !taken then unique (Printf.sprintf "%s_%d" base n) (n + 1)
          else candidate
        in
        let name = unique base 1 in
        taken := name :: !taken;
        { t_type = ty; t_name = name; root_node = build_table ty })
      (root_type :: List.filter (fun t -> not (String.equal t root_type)) shared)
  in
  { dtd; tables; root_type }

(* All columns of a table, in a stable order. *)
let rec node_columns (n : inline_node) =
  (if n.col_id = "id" then [] else [ (n.col_id, "INTEGER"); (n.col_ord, "INTEGER") ])
  @ (match n.col_pcdata with Some c -> [ (c, "TEXT") ] | None -> [])
  @ List.map (fun (_, c) -> (c, "TEXT")) n.col_attrs
  @ List.concat_map (function Inlined i -> node_columns i | Tabled _ -> []) n.children

let table_columns t =
  [ ("doc", "INTEGER NOT NULL"); ("id", "INTEGER NOT NULL"); ("parent_id", "INTEGER");
    ("ordinal", "INTEGER NOT NULL") ]
  @ node_columns t.root_node

(* ------------------------------------------------------------------ *)

let make (dtd : Dtd.t) : Mapping.mapping =
  let layout = derive_layout dtd in
  (module struct
    let id = "inline"
    let description = "DTD-driven shared inlining (Shanmugasundaram et al.)"

    let create_schema db =
      List.iter
        (fun t ->
          let cols = table_columns t in
          ignore
            (Db.exec db
               (Printf.sprintf "CREATE TABLE IF NOT EXISTS %s (%s)" t.t_name
                  (String.concat ", " (List.map (fun (c, ty) -> c ^ " " ^ ty) cols)))))
        layout.tables

    let create_indexes db =
      List.iter
        (fun t ->
          ignore
            (Db.exec db
               (Printf.sprintf "CREATE INDEX IF NOT EXISTS %s_id ON %s (id)" t.t_name t.t_name));
          ignore
            (Db.exec db
               (Printf.sprintf "CREATE INDEX IF NOT EXISTS %s_parent ON %s (parent_id)" t.t_name
                  t.t_name)))
        layout.tables

    (* -------------------------------------------------------------- *)
    (* Shredding *)

    let shred_into emit ~doc ix =
      let rec shred_tabled ~parent_id ~ordinal n tinfo =
        let cols = table_columns tinfo in
        let row = Hashtbl.create 16 in
        Hashtbl.replace row "doc" (Value.Int doc);
        Hashtbl.replace row "id" (Value.Int n);
        Hashtbl.replace row "parent_id"
          (match parent_id with Some p -> Value.Int p | None -> Value.Null);
        Hashtbl.replace row "ordinal" (Value.Int ordinal);
        fill row tinfo.root_node n;
        emit tinfo.t_name
          (Array.of_list
             (List.map
                (fun (c, _) -> Option.value ~default:Value.Null (Hashtbl.find_opt row c))
                cols))
      and fill row node n =
        if not (String.equal (Index.name ix n) node.in_type) then
          unsupported "element <%s> where the DTD expects <%s>" (Index.name ix n) node.in_type;
        if node.col_id <> "id" then begin
          Hashtbl.replace row node.col_id (Value.Int n);
          Hashtbl.replace row node.col_ord (Value.Int (Index.ordinal ix n))
        end;
        List.iter
          (fun a ->
            match List.assoc_opt (Index.name ix a) node.col_attrs with
            | Some col -> Hashtbl.replace row col (Value.Text (Index.value ix a))
            | None ->
              unsupported "attribute %s of <%s> is not declared in the DTD" (Index.name ix a)
                node.in_type)
          (Index.attributes ix n);
        let texts = ref [] in
        List.iter
          (fun c ->
            match Index.kind ix c with
            | Index.Text -> texts := Index.value ix c :: !texts
            | Index.Comment | Index.Pi ->
              unsupported "the inline mapping does not store comments or processing instructions"
            | Index.Element -> (
              let tag = Index.name ix c in
              let spec =
                List.find_opt
                  (fun s ->
                    match s with
                    | Inlined i -> String.equal i.in_tag tag
                    | Tabled ty -> String.equal ty tag)
                  node.children
              in
              match spec with
              | Some (Inlined inode) ->
                if Hashtbl.mem row inode.col_id then
                  unsupported
                    "<%s> repeats child <%s> that the DTD declares singleton under <%s>"
                    node.in_type tag node.in_type;
                fill row inode c
              | Some (Tabled ty) ->
                shred_tabled ~parent_id:(Some n) ~ordinal:(Index.ordinal ix c) c
                  (table_of layout ty)
              | None ->
                unsupported "child <%s> of <%s> is not declared in the DTD" tag node.in_type)
            | Index.Attribute | Index.Document -> ())
          (Index.children ix n);
        (match (!texts, node.col_pcdata) with
        | [], _ -> ()
        | ts, Some col -> Hashtbl.replace row col (Value.Text (String.concat "" (List.rev ts)))
        | _ :: _, None ->
          unsupported "<%s> contains text but its DTD content model has no #PCDATA" node.in_type)
      in
      let root = Index.root_element ix in
      if not (String.equal (Index.name ix root) layout.root_type) then
        unsupported "root element <%s> does not match the DTD root <%s>" (Index.name ix root)
          layout.root_type;
      shred_tabled ~parent_id:None ~ordinal:1 root (table_of layout layout.root_type)

    let shred_bulk session ~doc ix = shred_into (Db.session_insert session) ~doc ix

    (* -------------------------------------------------------------- *)
    (* Reconstruction *)

    (* A fetched row as a column->value lookup. *)
    let assoc_of result row =
      let tbl = Hashtbl.create 16 in
      List.iteri (fun i c -> Hashtbl.replace tbl c row.(i)) result.Relstore.Executor.columns;
      tbl

    let get_int assoc col =
      match Hashtbl.find_opt assoc col with
      | Some (Value.Int i) -> Some i
      | _ -> None

    let get_text assoc col =
      match Hashtbl.find_opt assoc col with
      | Some (Value.Text s) -> Some s
      | Some (Value.Int i) -> Some (string_of_int i)
      | _ -> None

    let rec build_element db ~doc tinfo (node : inline_node) assoc : Dom.element =
      let my_id =
        match get_int assoc node.col_id with
        | Some i -> i
        | None -> err "row lacks id column %s" node.col_id
      in
      let attrs =
        List.filter_map
          (fun (name, col) -> Option.map (fun v -> Dom.attr name v) (get_text assoc col))
          node.col_attrs
      in
      (* gather ordered children: inlined (present) + tabled rows *)
      let inlined =
        List.filter_map
          (function
            | Inlined i -> (
              match get_int assoc i.col_id with
              | Some _ ->
                let ord = Option.value ~default:0 (get_int assoc i.col_ord) in
                Some (ord, Dom.Element (build_element db ~doc tinfo i assoc))
              | None -> None)
            | Tabled _ -> None)
          node.children
      in
      let tabled =
        List.concat_map
          (function
            | Tabled ty ->
              let child_t = table_of layout ty in
              let b = Sb.binder () in
              let q =
                Sb.query
                  [
                    Sb.select ~from:[ Sb.from child_t.t_name ]
                      ~where:
                        [
                          Sb.eq (Sb.col "doc") (Sb.pint b doc);
                          Sb.eq (Sb.col "parent_id") (Sb.pint b my_id);
                        ]
                      [ Sb.star ];
                  ]
              in
              let r = query_built db ~params:(Sb.params b) q in
              List.map
                (fun row ->
                  let a = assoc_of r row in
                  let ord = Option.value ~default:0 (get_int a "ordinal") in
                  (ord, Dom.Element (build_element db ~doc child_t child_t.root_node a)))
                r.Relstore.Executor.rows
            | Inlined _ -> [])
          node.children
      in
      let element_children =
        List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) (inlined @ tabled))
      in
      let children =
        match (element_children, node.col_pcdata) with
        | [], Some col -> (
          match get_text assoc col with Some v when v <> "" -> [ Dom.Text v ] | _ -> [])
        | kids, _ -> kids
      in
      { Dom.tag = node.in_tag; attrs; children }

    let reconstruct db ~doc =
      let root_t = table_of layout layout.root_type in
      let b = Sb.binder () in
      let q =
        Sb.query
          [
            Sb.select ~from:[ Sb.from root_t.t_name ]
              ~where:
                [ Sb.eq (Sb.col "doc") (Sb.pint b doc); Sb.is_null (Sb.col "parent_id") ]
              [ Sb.star ];
          ]
      in
      let r = query_built db ~params:(Sb.params b) q in
      match r.Relstore.Executor.rows with
      | [ row ] ->
        Dom.document (build_element db ~doc root_t root_t.root_node (assoc_of r row))
      | [] -> err "document %d is not stored" doc
      | _ -> err "document %d has multiple roots" doc

    (* Subtree of one result node: locate its row by the node's id column. *)
    let element_by_id db ~doc tinfo (node : inline_node) nid =
      let b = Sb.binder () in
      let q =
        Sb.query
          [
            Sb.select ~from:[ Sb.from tinfo.t_name ]
              ~where:
                [
                  Sb.eq (Sb.col "doc") (Sb.pint b doc);
                  Sb.eq (Sb.col node.col_id) (Sb.pint b nid);
                ]
              [ Sb.star ];
          ]
      in
      let r = query_built db ~params:(Sb.params b) q in
      match r.Relstore.Executor.rows with
      | [ row ] -> build_element db ~doc tinfo node (assoc_of r row)
      | [] -> err "no row with %s = %d" node.col_id nid
      | _ -> err "multiple rows with %s = %d" node.col_id nid

    (* -------------------------------------------------------------- *)
    (* Query translation *)

    (* A route is one concrete way the path may thread through the table
       graph: FROM aliases, WHERE conditions, and the current location
       (alias + table + inline node). Conditions are deferred as closures
       over the route's eventual binder so bound values (doc id, compared
       literals) become parameters of the per-route statement. *)
    type route = {
      rt_froms : (string * string) list;  (* table, alias — reverse order *)
      rt_conds : (Sb.binder -> Relstore.Sql_ast.expr) list;  (* reverse order *)
      rt_alias : string;
      rt_table : table_info;
      rt_node : inline_node;
      rt_depth : int;  (* hops taken, recursion cap *)
    }

    let max_routes = 64
    let max_desc_depth = 12

    (* Reset per translation so equal paths render equal statement text —
       the plan-cache key. *)
    let alias_counter = ref 0

    let fresh_alias () =
      incr alias_counter;
      Printf.sprintf "q%d" !alias_counter

    let test_matches ty = function
      | Pathquery.Tag n -> String.equal ty n
      | Pathquery.Any_tag -> true

    (* One child move from a route. *)
    let child_moves db ~doc route test =
      ignore db;
      List.filter_map
        (fun spec ->
          match spec with
          | Inlined i when test_matches i.in_type test ->
            let cur = route.rt_alias in
            Some
              {
                route with
                rt_node = i;
                rt_conds = (fun _ -> Sb.is_not_null (acol cur i.col_id)) :: route.rt_conds;
                rt_depth = route.rt_depth + 1;
              }
          | Inlined _ -> None
          | Tabled ty when test_matches ty test ->
            let t = table_of layout ty in
            let a = fresh_alias () in
            (* the virtual document location (alias "") has no row: its
               child anchors on parent_id IS NULL *)
            let link =
              if route.rt_alias = "" then fun _ -> Sb.is_null (acol a "parent_id")
              else
                let cur = route.rt_alias and cid = route.rt_node.col_id in
                fun _ -> Sb.eq (acol a "parent_id") (acol cur cid)
            in
            Some
              {
                rt_froms = (t.t_name, a) :: route.rt_froms;
                rt_conds =
                  link
                  :: (fun b -> Sb.eq (acol a "doc") (Sb.pint b doc))
                  :: route.rt_conds;
                rt_alias = a;
                rt_table = t;
                rt_node = t.root_node;
                rt_depth = route.rt_depth + 1;
              }
          | Tabled _ -> None)
        route.rt_node.children

    (* All child moves regardless of the test (for '//' expansion). *)
    let all_child_moves db ~doc route = child_moves db ~doc route Pathquery.Any_tag

    exception Too_many_routes

    let desc_moves db ~doc route test =
      (* BFS over the mapping graph, collecting every matching location at
         any depth; recursion is bounded by [max_desc_depth]. *)
      let results = ref [] in
      let frontier = ref [ route ] in
      while !frontier <> [] do
        let next =
          List.concat_map
            (fun r ->
              if r.rt_depth - route.rt_depth >= max_desc_depth then []
              else all_child_moves db ~doc r)
            !frontier
        in
        List.iter
          (fun r -> if test_matches r.rt_node.in_type test then results := r :: !results)
          next;
        if List.length !results > max_routes then raise Too_many_routes;
        frontier := next
      done;
      List.rev !results

    (* Predicate conditions at a route's current location; None = the
       predicate can never hold there (route dies). *)
    let pred_conds db ~doc route (p : Pathquery.pred) =
      ignore db;
      let module P = Pathquery in
      let cur = route.rt_alias and node = route.rt_node in
      let find_child c =
        List.find_opt
          (fun s ->
            match s with
            | Inlined i -> String.equal i.in_type c
            | Tabled ty -> String.equal ty c)
          node.children
      in
      (* [render] maps the pcdata column expr + binder to the comparison *)
      let child_value_cond c ~render =
        match find_child c with
        | Some (Inlined i) -> (
          match i.col_pcdata with
          | Some col -> Some ([], [ (fun b -> render (acol cur col) b) ])
          | None -> None)
        | Some (Tabled ty) -> (
          let t = table_of layout ty in
          match t.root_node.col_pcdata with
          | Some col ->
            let a = fresh_alias () in
            let cid = node.col_id in
            Some
              ( [ (t.t_name, a) ],
                [
                  (fun b -> Sb.eq (acol a "doc") (Sb.pint b doc));
                  (fun _ -> Sb.eq (acol a "parent_id") (acol cur cid));
                  (fun b -> render (acol a col) b);
                ] )
          | None -> None)
        | None -> None
      in
      match p with
      | P.Has_child c -> (
        match find_child c with
        | Some (Inlined i) -> Some ([], [ (fun _ -> Sb.is_not_null (acol cur i.col_id)) ])
        | Some (Tabled ty) ->
          let t = table_of layout ty in
          let a = fresh_alias () in
          let cid = node.col_id in
          Some
            ( [ (t.t_name, a) ],
              [
                (fun b -> Sb.eq (acol a "doc") (Sb.pint b doc));
                (fun _ -> Sb.eq (acol a "parent_id") (acol cur cid));
              ] )
        | None -> None)
      | P.Has_attr at -> (
        match List.assoc_opt at node.col_attrs with
        | Some col -> Some ([], [ (fun _ -> Sb.is_not_null (acol cur col)) ])
        | None -> None)
      | P.Attr_value (at, op, v) -> (
        match List.assoc_opt at node.col_attrs with
        | Some col ->
          Some ([], [ (fun b -> Sb.cmp (P.cmp_binop op) (acol cur col) (Sb.ptext b v)) ])
        | None -> None)
      | P.Attr_number (at, op, v) -> (
        match List.assoc_opt at node.col_attrs with
        | Some col ->
          Some ([], [ (fun b -> P.number_cond b op (acol cur col) v) ])
        | None -> None)
      | P.Child_value (c, op, v) ->
        child_value_cond c ~render:(fun e b -> Sb.cmp (P.cmp_binop op) e (Sb.ptext b v))
      | P.Child_number (c, op, v) ->
        child_value_cond c ~render:(fun e b -> P.number_cond b op e v)

    let apply_preds db ~doc route preds =
      List.fold_left
        (fun acc p ->
          match acc with
          | None -> None
          | Some r -> (
            match pred_conds db ~doc r p with
            | None -> None
            | Some (extra_from, extra_cond) ->
              Some
                {
                  r with
                  rt_froms = List.rev extra_from @ r.rt_froms;
                  rt_conds = List.rev extra_cond @ r.rt_conds;
                }))
        (Some route) preds

    let translate db ~doc (simple : Pathquery.t) =
      let module P = Pathquery in
      alias_counter := 0;
      (* virtual starting route: the document node, whose only child is the
         root table *)
      let start =
        let doc_node =
          { in_type = "#doc"; in_tag = "#doc"; in_quant = Dtd.One; col_id = ""; col_ord = "";
            col_pcdata = None; col_attrs = []; children = [ Tabled layout.root_type ] }
        in
        {
          rt_froms = [];
          rt_conds = [];
          rt_alias = "";
          rt_table = { t_type = "#doc"; t_name = "#doc"; root_node = doc_node };
          rt_node = doc_node;
          rt_depth = 0;
        }
      in
      let step routes (s : P.step) =
        let moved =
          List.concat_map
            (fun r ->
              if s.P.desc then desc_moves db ~doc r s.P.test else child_moves db ~doc r s.P.test)
            routes
        in
        if List.length moved > max_routes then raise Too_many_routes;
        List.filter_map (fun r -> apply_preds db ~doc r s.P.preds) moved
      in
      let routes = List.fold_left step [ start ] simple.P.steps in
      (* one SELECT per surviving route *)
      List.filter_map
        (fun r ->
          let rid = acol r.rt_alias r.rt_node.col_id in
          let select =
            match simple.P.tgt with
            | P.Elements -> Some ([ Sb.proj rid ], [], `Element (r.rt_table, r.rt_node))
            | P.Attr_of a -> (
              match List.assoc_opt a r.rt_node.col_attrs with
              | Some col ->
                Some
                  ( [ Sb.proj rid; Sb.proj (acol r.rt_alias col) ],
                    [ (fun _ -> Sb.is_not_null (acol r.rt_alias col)) ],
                    `Value )
              | None -> None)
            | P.Text_of -> (
              match r.rt_node.col_pcdata with
              | Some col ->
                Some
                  ( [ Sb.proj rid; Sb.proj (acol r.rt_alias col) ],
                    [ (fun _ -> Sb.is_not_null (acol r.rt_alias col)) ],
                    `Value )
              | None -> None)
          in
          Option.map
            (fun (projs, extra_conds, shape) ->
              let froms = List.rev r.rt_froms in
              let b = Sb.binder () in
              let conds = List.map (fun f -> f b) (List.rev r.rt_conds @ extra_conds) in
              let q =
                Sb.query
                  [
                    Sb.select ~distinct:true
                      ~from:(List.map (fun (t, a) -> Sb.from ~alias:a t) froms)
                      ~where:conds projs;
                  ]
              in
              ((q, Sb.params b), shape))
            select)
        routes

    let query db ~doc (path : Xpathkit.Ast.path) : query_result =
      match Pathquery.analyze path with
      | None -> fallback_query ~reconstruct db ~doc path
      | Some simple -> (
        match traced_translate ~scheme:id (fun () -> translate db ~doc simple) with
        | exception Too_many_routes -> fallback_query ~reconstruct db ~doc path
        | selects ->
          let results = ref [] in
          let sqls = ref [] in
          let joins = ref 0 in
          List.iter
            (fun ((q, params), shape) ->
              let r = run_built db ~joins ~sqls ~params q in
              List.iter
                (fun row ->
                  let nid = match row.(0) with Value.Int i -> i | _ -> err "bad id" in
                  match shape with
                  | `Element (t, n) -> results := (nid, `Element (t, n)) :: !results
                  | `Value ->
                    let v = match row.(1) with Value.Null -> "" | v -> Value.to_string v in
                    results := (nid, `Value v) :: !results)
                r.Relstore.Executor.rows)
            selects;
          let sorted =
            List.sort_uniq (fun (a, _) (b, _) -> compare a b) !results
          in
          {
            values =
              List.map
                (fun (nid, shape) ->
                  match shape with
                  | `Element (t, n) ->
                    Dom.string_value_of_element (element_by_id db ~doc t n nid)
                  | `Value v -> v)
                sorted;
            nodes =
              lazy
                (List.map
                   (fun (nid, shape) ->
                     match shape with
                     | `Element (t, n) -> Dom.Element (element_by_id db ~doc t n nid)
                     | `Value v -> Dom.Text v)
                   sorted);
            sql = List.rev !sqls;
            joins = !joins;
            fallback = false;
          })
  end)
