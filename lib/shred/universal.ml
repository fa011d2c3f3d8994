(* The Universal-table mapping: one wide relation equivalent to the full
   outer join of all Binary tables — the straw-man baseline. One row per
   edge, with a column group per label, only the owning label's group
   non-NULL:

     univ(doc, source, ordinal,
          e_<tag>_t,  e_<tag>_v,   ... per element tag
          a_<name>_t, a_<name>_v,  ... per attribute name)
     u_labels(kind, label, col)    label registry

   An element edge fills (e_<tag>_t = child id, e_<tag>_v = the child's
   text when it is a text-only leaf); an attribute edge fills its a_ pair.
   The scheme targets data-centric XML: mixed content, comments, and
   processing instructions are rejected at shred time (the documented
   lossiness of the universal relation). New labels in later documents
   widen the table (rebuild + copy).

   The experiments show what the literature shows: tuple count equals
   Edge's, but bytes balloon with the NULL padding. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "universal"
let description = "single wide universal table (outer join of all binary tables)"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS u_labels (kind TEXT NOT NULL, label TEXT NOT NULL, col \
        TEXT NOT NULL)");
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS univ (doc INTEGER NOT NULL, source INTEGER NOT NULL, \
        ordinal INTEGER NOT NULL)")

let create_indexes db =
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS univ_source ON univ (source)")

(* Registry: labels and their column bases. *)
let labels db =
  let q =
    Sb.query
      [
        Sb.select ~from:[ Sb.from "u_labels" ]
          [ Sb.proj (Sb.col "kind"); Sb.proj (Sb.col "label"); Sb.proj (Sb.col "col") ];
      ]
  in
  let r = query_built db q in
  List.map
    (fun a -> (Value.to_string a.(0), Value.to_string a.(1), Value.to_string a.(2)))
    r.Relstore.Executor.rows

let col_of db ~kind label =
  List.find_map
    (fun (k, l, c) -> if k = kind && l = label then Some c else None)
    (labels db)

let id_col ~kind col = Printf.sprintf "%s_%s_t" kind col
let val_col ~kind col = Printf.sprintf "%s_%s_v" kind col

(* Widen the table for any labels not yet registered: rebuild + copy. *)
let ensure_labels db new_labels =
  let existing = labels db in
  let missing =
    List.filter
      (fun (k, l) -> not (List.exists (fun (k', l', _) -> k = k' && l = l') existing))
      new_labels
  in
  if missing <> [] then begin
    let taken = ref (List.map (fun (_, _, c) -> c) existing) in
    let fresh label =
      let base = sanitize label in
      let rec unique candidate n =
        if List.mem candidate !taken then unique (Printf.sprintf "%s_%d" base n) (n + 1)
        else candidate
      in
      let c = unique base 1 in
      taken := c :: !taken;
      c
    in
    let added = List.map (fun (k, l) -> (k, l, fresh l)) missing in
    List.iter
      (fun (k, l, c) ->
        Db.insert_row_array db "u_labels" [| Value.Text k; Value.Text l; Value.Text c |])
      added;
    (* rebuild univ with the wider schema, copying old rows *)
    let all = existing @ added in
    let old_cols =
      [ "doc"; "source"; "ordinal" ]
      @ List.concat_map (fun (k, _, c) -> [ id_col ~kind:k c; val_col ~kind:k c ]) existing
    in
    let old_rows =
      let q =
        Sb.query
          [
            Sb.select ~from:[ Sb.from "univ" ] (List.map (fun c -> Sb.proj (Sb.col c)) old_cols);
          ]
      in
      (query_built db q).Relstore.Executor.rows
    in
    ignore (Db.exec db "DROP TABLE univ");
    let col_defs =
      [ "doc INTEGER NOT NULL"; "source INTEGER NOT NULL"; "ordinal INTEGER NOT NULL" ]
      @ List.concat_map
          (fun (k, _, c) ->
            [ id_col ~kind:k c ^ " INTEGER"; val_col ~kind:k c ^ " TEXT" ])
          all
    in
    ignore (Db.exec db (Printf.sprintf "CREATE TABLE univ (%s)" (String.concat ", " col_defs)));
    let pad = 2 * List.length added in
    List.iter
      (fun row ->
        Db.insert_row_array db "univ" (Array.append row (Array.make pad Value.Null)))
      old_rows;
    create_indexes db
  end

(* Width of the current univ row and position of each column. *)
let univ_columns db =
  [ "doc"; "source"; "ordinal" ]
  @ List.concat_map (fun (k, _, c) -> [ id_col ~kind:k c; val_col ~kind:k c ]) (labels db)

(* Text-only leaf content of an element, or None when it has element
   children. Raises on mixed content. *)
let leaf_text ix n =
  let kids = Index.children ix n in
  let texts = List.filter (fun c -> Index.kind ix c = Index.Text) kids in
  let elems = List.filter (fun c -> Index.kind ix c = Index.Element) kids in
  if List.exists (fun c -> match Index.kind ix c with Index.Comment | Index.Pi -> true | _ -> false) kids
  then err "universal mapping does not support comments or processing instructions";
  match (texts, elems) with
  | [], [] -> Some ""
  | _, [] -> Some (String.concat "" (List.map (Index.value ix) texts))
  | [], _ -> None
  | _, _ -> err "universal mapping does not support mixed content"

(* [ensure_labels] (registry + possible univ rebuild, all DDL and copies)
   runs on [db] before the first row is emitted, so a bulk session never
   holds an append range on a table that gets dropped under it. *)
let shred_into emit db ~doc ix =
  (* collect labels *)
  let labs = ref [] in
  for n = 1 to Index.count ix - 1 do
    match Index.kind ix n with
    | Index.Element ->
      let l = ("e", Index.name ix n) in
      if not (List.mem l !labs) then labs := l :: !labs
    | Index.Attribute ->
      let l = ("a", Index.name ix n) in
      if not (List.mem l !labs) then labs := l :: !labs
    | _ -> ()
  done;
  ensure_labels db (List.rev !labs);
  let all = labels db in
  let cols = univ_columns db in
  let width = List.length cols in
  let pos =
    let tbl = Hashtbl.create 32 in
    List.iteri (fun i c -> Hashtbl.add tbl c i) cols;
    fun c -> Hashtbl.find tbl c
  in
  let col_for kind label =
    match List.find_opt (fun (k, l, _) -> k = kind && l = label) all with
    | Some (_, _, c) -> c
    | None -> err "label %s not registered" label
  in
  let insert_edge ~source ~ordinal ~kind ~label ~target ~value =
    let row = Array.make width Value.Null in
    row.(0) <- Value.Int doc;
    row.(1) <- Value.Int source;
    row.(2) <- Value.Int ordinal;
    let c = col_for kind label in
    row.(pos (id_col ~kind c)) <- Value.Int target;
    (match value with Some v -> row.(pos (val_col ~kind c)) <- Value.Text v | None -> ());
    emit "univ" row
  in
  for n = 1 to Index.count ix - 1 do
    match Index.kind ix n with
    | Index.Element ->
      insert_edge ~source:(Index.parent ix n) ~ordinal:(Index.ordinal ix n) ~kind:"e"
        ~label:(Index.name ix n) ~target:n ~value:(leaf_text ix n)
    | Index.Attribute ->
      insert_edge ~source:(Index.parent ix n) ~ordinal:(Index.ordinal ix n) ~kind:"a"
        ~label:(Index.name ix n) ~target:n ~value:(Some (Index.value ix n))
    | Index.Text | Index.Comment | Index.Pi | Index.Document -> ()
  done

let shred_bulk session ~doc ix =
  shred_into (Db.session_insert session) (Db.session_db session) ~doc ix

(* ------------------------------------------------------------------ *)
(* Reconstruction *)

(* A decoded edge: which label the row carries, plus ids. *)
type edge = {
  g_source : int;
  g_ordinal : int;
  g_kind : string;
  g_label : string;
  g_target : int;
  g_value : string option;
}

(* A pseudo-edge for the document node (node id 0). *)
let root_edge = { g_source = -1; g_ordinal = 0; g_kind = "e"; g_label = ""; g_target = 0; g_value = None }

let decode_rows db rows =
  let all = labels db in
  let cols = univ_columns db in
  List.filter_map
    (fun (row : Value.t array) ->
      let get name =
        let rec go i = function
          | [] -> err "missing column %s" name
          | c :: _ when c = name -> row.(i)
          | _ :: rest -> go (i + 1) rest
        in
        go 0 cols
      in
      let source = match get "source" with Value.Int i -> i | _ -> err "bad source" in
      let ordinal = match get "ordinal" with Value.Int i -> i | _ -> err "bad ordinal" in
      List.find_map
        (fun (k, l, c) ->
          match get (id_col ~kind:k c) with
          | Value.Int t ->
            Some
              {
                g_source = source;
                g_ordinal = ordinal;
                g_kind = k;
                g_label = l;
                g_target = t;
                g_value =
                  (match get (val_col ~kind:k c) with
                  | Value.Null -> None
                  | v -> Some (Value.to_string v));
              }
          | _ -> None)
        all)
    rows

(* Fetch the full column group of matching rows and decode. [cond] builds
   the extra WHERE conjuncts against a fresh binder; [sqls], when given,
   records the executed statement (stepwise reporting). *)
let fetch_edges db ?sqls ~doc cond =
  let b = Sb.binder () in
  let where = Sb.eq (Sb.col "doc") (Sb.pint b doc) :: cond b in
  let projs = List.map (fun c -> Sb.proj (Sb.col c)) (univ_columns db) in
  let q = Sb.query [ Sb.select ~from:[ Sb.from "univ" ] ~where projs ] in
  let r =
    match sqls with
    | Some sqls -> run_built db ~sqls ~params:(Sb.params b) q
    | None -> query_built db ~params:(Sb.params b) q
  in
  decode_rows db r.Relstore.Executor.rows

(* The subtree under edge [e], [children] giving each edge's child rows:
   a hash lookup when rebuilding a document, a fetch per node for a query
   result. *)
let rec element_of children (e : edge) : Dom.node =
  let attrs, elems = List.partition (fun c -> c.g_kind = "a") (children e) in
  let sorted l = List.sort (fun a b -> compare a.g_ordinal b.g_ordinal) l in
  let content =
    match (elems, e.g_value) with
    | [], Some "" | [], None -> []
    | [], Some v -> [ Dom.Text v ]
    | es, _ -> List.map (element_of children) (sorted es)
  in
  Dom.Element
    {
      Dom.tag = e.g_label;
      attrs =
        List.map (fun a -> Dom.attr a.g_label (Option.value ~default:"" a.g_value)) (sorted attrs);
      children = content;
    }

let reconstruct db ~doc =
  let by_source = Hashtbl.create 256 in
  List.iter
    (fun e ->
      Hashtbl.replace by_source e.g_source
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_source e.g_source)))
    (fetch_edges db ~doc (fun _ -> []));
  let children e = Option.value ~default:[] (Hashtbl.find_opt by_source e.g_target) in
  match children root_edge with
  | [ root ] -> (
    match element_of children root with
    | Dom.Element e -> Dom.document e
    | _ -> err "root is not an element")
  | [] -> err "document %d is not stored" doc
  | _ -> err "document %d has multiple roots" doc

(* Subtree by node id: repeated source fetches. *)
let node_of_target db ~doc =
  element_of (fun e -> fetch_edges db ~doc (fun b -> [ Sb.eq (Sb.col "source") (Sb.pint b e.g_target) ]))

(* Find the edge row pointing at a given node id. *)
let edge_of_target db ~doc ~kind ~label target =
  match col_of db ~kind label with
  | None -> err "unknown label %s" label
  | Some c -> (
    let edges =
      fetch_edges db ~doc (fun b -> [ Sb.eq (Sb.col (id_col ~kind c)) (Sb.pint b target) ])
    in
    match edges with
    | [ e ] -> e
    | [] -> err "no edge with target %d" target
    | _ -> err "multiple edges with target %d" target)

(* ------------------------------------------------------------------ *)
(* Query translation *)

exception Empty_result

(* Named child chains in one statement; target values selected directly.
   Returns ((query, params), shape). *)
let chain_query db ~doc (simple : Pathquery.t) =
  let module P = Pathquery in
  let ecol tag = match col_of db ~kind:"e" tag with Some c -> c | None -> raise Empty_result in
  let attcol at = match col_of db ~kind:"a" at with Some c -> c | None -> raise Empty_result in
  let b = Sb.binder () in
  let pdoc = Sb.pint b doc in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "u%d" !counter
  in
  let froms = ref [] and wheres = ref [] in
  let add_from a = froms := a :: !froms in
  let add_where w = wheres := w :: !wheres in
  (* current element id expression and its tag column *)
  let prev = ref None in
  List.iter
    (fun (s : P.step) ->
      assert (not s.P.desc);
      let tag = match s.P.test with P.Tag n -> n | P.Any_tag -> err "wildcard in chain" in
      let c = ecol tag in
      let u = fresh () in
      add_from u;
      add_where (Sb.eq (acol u "doc") pdoc);
      add_where (Sb.is_not_null (acol u (id_col ~kind:"e" c)));
      (match !prev with
      | None -> add_where (Sb.eq (acol u "source") (Sb.int 0))
      | Some (p, pc) -> add_where (Sb.eq (acol u "source") (acol p (id_col ~kind:"e" pc))));
      let cur_id = acol u (id_col ~kind:"e" c) in
      (* auxiliary row joined on source = current element id *)
      let aux_on_cur () =
        let a = fresh () in
        add_from a;
        add_where (Sb.eq (acol a "doc") pdoc);
        add_where (Sb.eq (acol a "source") cur_id);
        a
      in
      List.iter
        (fun pr ->
          match pr with
          | P.Has_child ch ->
            let cc = ecol ch in
            let a = aux_on_cur () in
            add_where (Sb.is_not_null (acol a (id_col ~kind:"e" cc)))
          | P.Has_attr at ->
            let ac = attcol at in
            let a = aux_on_cur () in
            add_where (Sb.is_not_null (acol a (id_col ~kind:"a" ac)))
          | P.Attr_value (at, op, v) ->
            let ac = attcol at in
            let a = aux_on_cur () in
            add_where (Sb.cmp (P.cmp_binop op) (acol a (val_col ~kind:"a" ac)) (Sb.ptext b v))
          | P.Attr_number (at, op, v) ->
            let ac = attcol at in
            let a = aux_on_cur () in
            add_where (P.number_cond b op (acol a (val_col ~kind:"a" ac)) v)
          | P.Child_value (ch, op, v) ->
            let cc = ecol ch in
            let a = aux_on_cur () in
            add_where (Sb.cmp (P.cmp_binop op) (acol a (val_col ~kind:"e" cc)) (Sb.ptext b v))
          | P.Child_number (ch, op, v) ->
            let cc = ecol ch in
            let a = aux_on_cur () in
            add_where (P.number_cond b op (acol a (val_col ~kind:"e" cc)) v))
        s.P.preds;
      prev := Some (u, c))
    simple.P.steps;
  let last, lc = match !prev with Some p -> p | None -> err "empty path" in
  let last_id = acol last (id_col ~kind:"e" lc) in
  let projs, order, shape =
    match simple.P.tgt with
    | P.Elements ->
      ( [ Sb.proj last_id ],
        last_id,
        `Element
          (List.rev simple.P.steps |> List.hd |> fun s ->
           match s.P.test with P.Tag n -> n | P.Any_tag -> assert false) )
    | P.Attr_of a ->
      let ac = attcol a in
      let at = fresh () in
      add_from at;
      add_where (Sb.eq (acol at "doc") pdoc);
      add_where (Sb.eq (acol at "source") last_id);
      add_where (Sb.is_not_null (acol at (id_col ~kind:"a" ac)));
      ( [ Sb.proj (acol at (id_col ~kind:"a" ac)); Sb.proj (acol at (val_col ~kind:"a" ac)) ],
        acol at (id_col ~kind:"a" ac),
        `Value )
    | P.Text_of ->
      add_where (Sb.is_not_null (acol last (val_col ~kind:"e" lc)));
      ([ Sb.proj last_id; Sb.proj (acol last (val_col ~kind:"e" lc)) ], last_id, `Value)
  in
  let q =
    Sb.query
      [
        Sb.select ~distinct:true
          ~from:(List.rev_map (fun a -> Sb.from ~alias:a "univ") !froms)
          ~where:(List.rev !wheres)
          ~order_by:[ Sb.asc order ]
          projs;
      ]
  in
  ((q, Sb.params b), shape)

(* Stepwise evaluation (Frontier) for '//' and wildcards: fetch the full
   column group of each frontier batch and decode in OCaml — the universal
   table makes every navigation touch the whole wide row. *)
module Scheme = struct
  type node = edge
  type leaf = int * string

  let fetch { Frontier.db; doc; sqls } cond = fetch_edges db ~sqls ~doc cond
  let kids ctx (e : edge) = fetch ctx (fun b -> [ Sb.eq (Sb.col "source") (Sb.pint b e.g_target) ])

  let root = root_edge
  let key e = e.g_target
  let tag = Some (fun e -> e.g_label)

  let children ctx frontier name =
    Frontier.batched (List.map key frontier) (fun chunk ->
        fetch ctx (fun b -> [ Sb.in_list (Sb.col "source") (List.map (Sb.pint b) chunk) ]))
    |> List.filter (fun e ->
           e.g_kind = "e" && match name with Some n -> e.g_label = n | None -> true)

  (* One fetch of the node's children per predicate, tested in OCaml. A
     child element's value is its text when it is a text-only leaf; one
     with element children has none, as in the SQL translations. *)
  let holds ctx e (p : Pathquery.pred) =
    let module P = Pathquery in
    let kids = kids ctx e in
    let labelled kind label = List.filter (fun k -> k.g_kind = kind && k.g_label = label) kids in
    let some kind label f =
      List.exists (fun k -> match k.g_value with Some s -> f s | None -> false) (labelled kind label)
    in
    match p with
    | P.Has_child c -> labelled "e" c <> []
    | P.Has_attr a -> labelled "a" a <> []
    | P.Attr_value (a, op, v) -> some "a" a (fun s -> P.string_holds op s v)
    | P.Attr_number (a, op, v) -> some "a" a (fun s -> P.number_holds op s v)
    | P.Child_value (c, op, v) -> some "e" c (fun s -> P.string_holds op s v)
    | P.Child_number (c, op, v) -> some "e" c (fun s -> P.number_holds op s v)

  let attrs ctx frontier a =
    List.concat_map
      (fun e ->
        kids ctx e
        |> List.filter (fun k -> k.g_kind = "a" && k.g_label = a)
        |> List.map (fun k -> (k.g_target, Option.value ~default:"" k.g_value)))
      frontier

  let texts _ frontier =
    List.filter_map
      (fun e -> match e.g_value with Some v when v <> "" -> Some (e.g_target, v) | _ -> None)
      frontier
end

let result_of_edges db ~doc edges sqls joins =
  let edges = List.sort (fun a b -> compare a.g_target b.g_target) edges in
  {
    values = List.map (fun e -> Dom.string_value (node_of_target db ~doc e)) edges;
    nodes = lazy (List.map (node_of_target db ~doc) edges);
    sql = sqls;
    joins;
    fallback = false;
  }

let result_of_values values sqls joins =
  let values = List.sort compare values in
  {
    values = List.map snd values;
    nodes = lazy (List.map (fun (_, v) -> Dom.Text v) values);
    sql = sqls;
    joins;
    fallback = false;
  }

let query db ~doc (path : Xpathkit.Ast.path) : query_result =
  match Pathquery.analyze path with
  | None -> fallback_query ~reconstruct db ~doc path
  | Some simple ->
    if Frontier.is_named_chain ~wildcards:false simple then begin
      match traced_translate ~scheme:id (fun () -> chain_query db ~doc simple) with
      | (q, params), shape -> (
        let sqls = ref [] and joins = ref 0 in
        let rows = (run_built db ~joins ~sqls ~params q).Relstore.Executor.rows in
        let sql = List.rev !sqls and joins = !joins in
        match shape with
        | `Element tag ->
          let ids = List.map (fun r -> match r.(0) with Value.Int i -> i | _ -> err "bad id") rows in
          result_of_edges db ~doc
            (List.map (fun t -> edge_of_target db ~doc ~kind:"e" ~label:tag t) ids)
            sql joins
        | `Value ->
          result_of_values
            (List.map
               (fun r ->
                 ( (match r.(0) with Value.Int i -> i | _ -> err "bad id"),
                   match r.(1) with Value.Null -> "" | v -> Value.to_string v ))
               rows)
            sql joins)
      | exception Empty_result ->
        { values = []; nodes = lazy []; sql = []; joins = 0; fallback = false }
    end
    else begin
      match Frontier.stepwise (module Scheme) db ~doc simple with
      | Frontier.Nodes edges, sqls -> result_of_edges db ~doc edges sqls 0
      | Frontier.Leaves vs, sqls -> result_of_values vs sqls 0
    end

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
