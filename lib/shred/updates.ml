(* In-place update operations on stored documents, for the schemes where
   the literature defines them:

   - edge:     append/delete touch only the subtree (node ids are opaque);
   - dewey:    append labels a new sibling, delete removes a label prefix —
               the cheap-update design goal of Tatarinov et al.;
   - interval: any structural update must renumber every following node's
               [pre] (and ancestors' sizes) — the known weakness of
               pre/post encodings that ORDPath-style labels fix.

   Both operations report how many rows they inserted / updated / deleted,
   which experiment F5 uses as the machine-independent cost measure. *)

module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

type cost = { inserted : int; updated : int; deleted : int }

let zero = { inserted = 0; updated = 0; deleted = 0 }

let cost_total c = c.inserted + c.updated + c.deleted

module type UPDATER = sig
  val id : string

  val append_child : Db.t -> doc:int -> parent:Xpathkit.Ast.path -> Dom.node -> cost
  (** Append [node] as the last child of the single element selected by
      [parent]. Fails if the path selects zero or several elements. *)

  val delete_matching : Db.t -> doc:int -> Xpathkit.Ast.path -> cost
  (** Delete every element (subtree included) selected by the path. *)
end

let err_target n =
  err "update target must select exactly one element (selected %d)" n

let simple_of path =
  match Pathquery.analyze_update path with
  | Some s when s.Pathquery.tgt = Pathquery.Elements -> s
  | Some _ -> err "update paths must select elements"
  | None -> err "update paths must be within the translatable subset"

(* Index a detached fragment rooted at an element node. *)
let index_fragment (node : Dom.node) =
  match node with
  | Dom.Element e -> Index.of_document (Dom.document e)
  | _ -> err "only element subtrees can be appended"

(* ------------------------------------------------------------------ *)
(* Edge *)

module Edge_updater : UPDATER = struct
  let id = "edge"

  let targets db ~doc path =
    Frontier.ids (fst (Frontier.stepwise (module Edge.Scheme) db ~doc (simple_of path)))

  let scalar_int db ~params sql =
    match (Db.query ~params db sql).Relstore.Executor.rows with
    | [ [| Value.Int i |] ] -> i
    | [ [| Value.Null |] ] -> 0
    | _ -> err "expected one integer from %s" sql

  let append_child db ~doc ~parent node =
    match targets db ~doc parent with
    | [ target ] ->
      let fragment = index_fragment node in
      let base =
        scalar_int db ~params:[| Value.Int doc |] "SELECT max(target) FROM edge WHERE doc = ?1"
      in
      let next_ord =
        1
        + scalar_int db
            ~params:[| Value.Int doc; Value.Int target |]
            "SELECT max(ordinal) FROM edge WHERE doc = ?1 AND source = ?2 AND kind <> 'a'"
      in
      (* fragment node 0 is its document node; node ids shift by [base] *)
      let inserted = ref 0 in
      for n = 1 to Index.count fragment - 1 do
        let source = Index.parent fragment n in
        let is_frag_root = n = Index.root_element fragment in
        let source_id = if source = 0 then target else base + source in
        let target_id = base + n in
        let ordinal = if is_frag_root then next_ord else Index.ordinal fragment n in
        let kind, name, value =
          match Index.kind fragment n with
          | Index.Element -> ("e", Some (Index.name fragment n), None)
          | Index.Attribute -> ("a", Some (Index.name fragment n), Some (Index.value fragment n))
          | Index.Text -> ("t", None, Some (Index.value fragment n))
          | Index.Comment -> ("c", None, Some (Index.value fragment n))
          | Index.Pi -> ("p", Some (Index.name fragment n), Some (Index.value fragment n))
          | Index.Document -> ("d", None, None)
        in
        if kind <> "d" then begin
          Db.insert_row_array db "edge"
            [|
              Value.Int doc; Value.Int source_id; Value.Int ordinal; Value.Text kind;
              (match name with Some n -> Value.Text n | None -> Value.Null);
              Value.Int target_id;
              (match value with Some v -> Value.Text v | None -> Value.Null);
            |];
          incr inserted
        end
      done;
      { zero with inserted = !inserted }
    | ts -> err_target (List.length ts)

  let delete_matching db ~doc path =
    let roots = targets db ~doc path in
    let deleted = ref 0 in
    let delete_one root =
      (* BFS over the subtree, deleting edges bottom-up is unnecessary:
         collect ids first, then delete by target and by source *)
      let all = ref [ root ] in
      let frontier = ref [ root ] in
      while !frontier <> [] do
        let next =
          Frontier.batched !frontier (fun chunk ->
              let b = Sb.binder () in
              let q =
                Sb.query
                  [
                    Sb.select
                      ~from:[ Sb.from "edge" ]
                      ~where:
                        [
                          Sb.eq (Sb.col "doc") (Sb.pint b doc);
                          Sb.in_list (Sb.col "source") (List.map (Sb.pint b) chunk);
                        ]
                      [ Sb.proj (Sb.col "target") ];
                  ]
              in
              int_column (query_built db ~params:(Sb.params b) q))
        in
        all := next @ !all;
        frontier := next
      done;
      (* every subtree row is addressed by its target id, the incoming edge
         of the root included *)
      ignore
        (Frontier.batched !all (fun chunk ->
             let params =
               Array.of_list (Value.Int doc :: List.map (fun i -> Value.Int i) chunk)
             in
             let holes =
               String.concat ", " (List.mapi (fun i _ -> Printf.sprintf "?%d" (i + 2)) chunk)
             in
             (match
                Db.exec ~params db
                  (Printf.sprintf "DELETE FROM edge WHERE doc = ?1 AND target IN (%s)" holes)
              with
             | Db.Affected n -> deleted := !deleted + n
             | _ -> ());
             []))
    in
    List.iter delete_one roots;
    { zero with deleted = !deleted }
end

(* ------------------------------------------------------------------ *)
(* Dewey *)

module Dewey_updater : UPDATER = struct
  let id = "dewey"

  let labels db ~doc path =
    let q, params = Dewey.translate ~doc (simple_of path) in
    string_column (query_built db ~params q)

  let append_child db ~doc ~parent node =
    match labels db ~doc parent with
    | [ parent_label ] ->
      let fragment = index_fragment node in
      (* next free child ordinal under the parent *)
      let r =
        Db.query
          ~params:[| Value.Int doc; Value.Text parent_label |]
          db "SELECT max(ordinal) FROM dewey WHERE doc = ?1 AND parent_label = ?2 AND kind <> 'a'"
      in
      let next_ord =
        1
        + (match r.Relstore.Executor.rows with
          | [ [| Value.Int i |] ] -> i
          | _ -> 0)
      in
      (* relabel the fragment under parent_label.next_ord *)
      let frag_labels = Array.make (Index.count fragment) "" in
      let parent_level =
        match
          (Db.query
             ~params:[| Value.Int doc; Value.Text parent_label |]
             db "SELECT level FROM dewey WHERE doc = ?1 AND label = ?2")
            .Relstore.Executor.rows
        with
        | [ [| Value.Int l |] ] -> l
        | _ -> err "parent label %s not found" parent_label
      in
      let inserted = ref 0 in
      for n = 1 to Index.count fragment - 1 do
        let p = Index.parent fragment n in
        let attr = Index.kind fragment n = Index.Attribute in
        let ordinal =
          if n = Index.root_element fragment then next_ord else Index.ordinal fragment n
        in
        let comp = Dewey.component ~attr ordinal in
        let parent_lab = if p = 0 then parent_label else frag_labels.(p) in
        let label = parent_lab ^ "." ^ comp in
        frag_labels.(n) <- label;
        let name =
          match Index.kind fragment n with
          | Index.Element | Index.Attribute | Index.Pi -> Value.Text (Index.name fragment n)
          | _ -> Value.Null
        in
        let value =
          match Index.kind fragment n with
          | Index.Element | Index.Document -> Value.Null
          | _ -> Value.Text (Index.value fragment n)
        in
        Db.insert_row_array db "dewey"
          [|
            Value.Int doc;
            Value.Text label;
            Value.Text parent_lab;
            Value.Text (kind_code (Index.kind fragment n));
            name;
            value;
            Value.Int (parent_level + Index.level fragment n);
            Value.Int ordinal;
          |];
        incr inserted
      done;
      { zero with inserted = !inserted }
    | ls -> err_target (List.length ls)

  let delete_matching db ~doc path =
    let victims = labels db ~doc path in
    let deleted = ref 0 in
    List.iter
      (fun label ->
        List.iter
          (fun (sql, params) ->
            match Db.exec ~params db sql with
            | Db.Affected n -> deleted := !deleted + n
            | _ -> ())
          [
            ( "DELETE FROM dewey WHERE doc = ?1 AND label = ?2",
              [| Value.Int doc; Value.Text label |] );
            ( "DELETE FROM dewey WHERE doc = ?1 AND label LIKE ?2",
              [| Value.Int doc; Value.Text (label ^ ".%") |] );
          ])
      victims;
    { zero with deleted = !deleted }
end

(* ------------------------------------------------------------------ *)
(* Interval *)

module Interval_updater : UPDATER = struct
  let id = "interval"

  let pres db ~doc path =
    let q, params = Interval.translate ~doc (simple_of path) in
    int_column (query_built db ~params q)

  let node_row db ~doc pre =
    match
      (Db.query
         ~params:[| Value.Int doc; Value.Int pre |]
         db "SELECT size, level, parent, ordinal FROM accel WHERE doc = ?1 AND pre = ?2")
        .Relstore.Executor.rows
    with
    | [ [| Value.Int size; Value.Int level; Value.Int parent; Value.Int ordinal |] ] ->
      (size, level, parent, ordinal)
    | _ -> err "node %d not stored" pre

  let affected db ~params sql =
    match Db.exec ~params db sql with Db.Affected n -> n | _ -> 0

  (* ancestors of a pre (walking parent pointers) *)
  let rec ancestors db ~doc pre acc =
    if pre = 0 then acc
    else
      let _, _, parent, _ = node_row db ~doc pre in
      if parent = 0 then acc else ancestors db ~doc parent (parent :: acc)

  let append_child db ~doc ~parent node =
    match pres db ~doc parent with
    | [ target ] ->
      let fragment = index_fragment node in
      let k = Index.count fragment - 1 in
      let size, level, _, _ = node_row db ~doc target in
      (* new nodes occupy pres (insert_at, insert_at + k] *)
      let insert_at = target + size in
      let updated = ref 0 in
      (* shift every following node (and parent pointers) — the O(document)
         renumbering this scheme is known for *)
      updated :=
        !updated
        + affected db
            ~params:[| Value.Int k; Value.Int doc; Value.Int insert_at |]
            "UPDATE accel SET pre = pre + ?1 WHERE doc = ?2 AND pre > ?3";
      updated :=
        !updated
        + affected db
            ~params:[| Value.Int k; Value.Int doc; Value.Int insert_at |]
            "UPDATE accel SET parent = parent + ?1 WHERE doc = ?2 AND parent > ?3";
      (* grow the ancestors' subtree sizes (the target included) *)
      let anc = target :: ancestors db ~doc target [] in
      List.iter
        (fun a ->
          updated :=
            !updated
            + affected db
                ~params:[| Value.Int k; Value.Int doc; Value.Int a |]
                "UPDATE accel SET size = size + ?1 WHERE doc = ?2 AND pre = ?3")
        anc;
      (* ordinal for the appended child *)
      let next_ord =
        let r =
          Db.query
            ~params:[| Value.Int doc; Value.Int target |]
            db "SELECT max(ordinal) FROM accel WHERE doc = ?1 AND parent = ?2 AND kind <> 'a'"
        in
        match r.Relstore.Executor.rows with [ [| Value.Int i |] ] -> 1 + i | _ -> 1
      in
      let inserted = ref 0 in
      for n = 1 to Index.count fragment - 1 do
        let p = Index.parent fragment n in
        let pre = insert_at + n in
        let parent_pre = if p = 0 then target else insert_at + p in
        let ordinal =
          if n = Index.root_element fragment then next_ord else Index.ordinal fragment n
        in
        let name =
          match Index.kind fragment n with
          | Index.Element | Index.Attribute | Index.Pi -> Value.Text (Index.name fragment n)
          | _ -> Value.Null
        in
        let value =
          match Index.kind fragment n with
          | Index.Element | Index.Document -> Value.Null
          | _ -> Value.Text (Index.value fragment n)
        in
        Db.insert_row_array db "accel"
          [|
            Value.Int doc;
            Value.Int pre;
            Value.Int (Index.size fragment n);
            Value.Int (level + Index.level fragment n);
            Value.Text (kind_code (Index.kind fragment n));
            name;
            value;
            Value.Int parent_pre;
            Value.Int ordinal;
          |];
        incr inserted
      done;
      { zero with inserted = !inserted; updated = !updated }
    | ts -> err_target (List.length ts)

  let delete_matching db ~doc path =
    let victims = pres db ~doc path in
    (* delete deepest-first so earlier renumbering does not move later
       victims: descending pre order is enough because a later victim can
       never contain an earlier one *)
    let victims = List.sort (fun a b -> compare b a) victims in
    let deleted = ref 0 and updated = ref 0 in
    List.iter
      (fun pre ->
        let size, _, _, _ = node_row db ~doc pre in
        let k = size + 1 in
        let anc = ancestors db ~doc pre [] in
        deleted :=
          !deleted
          + affected db
              ~params:[| Value.Int doc; Value.Int pre; Value.Int (pre + size) |]
              "DELETE FROM accel WHERE doc = ?1 AND pre >= ?2 AND pre <= ?3";
        List.iter
          (fun a ->
            updated :=
              !updated
              + affected db
                  ~params:[| Value.Int k; Value.Int doc; Value.Int a |]
                  "UPDATE accel SET size = size - ?1 WHERE doc = ?2 AND pre = ?3")
          anc;
        updated :=
          !updated
          + affected db
              ~params:[| Value.Int k; Value.Int doc; Value.Int (pre + size) |]
              "UPDATE accel SET pre = pre - ?1 WHERE doc = ?2 AND pre > ?3";
        updated :=
          !updated
          + affected db
              ~params:[| Value.Int k; Value.Int doc; Value.Int (pre + size) |]
              "UPDATE accel SET parent = parent - ?1 WHERE doc = ?2 AND parent > ?3")
      victims;
    { zero with deleted = !deleted; updated = !updated }
end

(* ------------------------------------------------------------------ *)

let all : (module UPDATER) list =
  [ (module Edge_updater); (module Dewey_updater); (module Interval_updater) ]

let find scheme =
  List.find_opt
    (fun m ->
      let module U = (val m : UPDATER) in
      String.equal U.id scheme)
    all
