(* Rebuilding a DOM from node rows, shared by the schemes that store each
   node with its parent's id: Edge, Binary, Interval and Dewey. The id type
   is the scheme's own: an integer node id, or a Dewey label. *)

module Dom = Xmlkit.Dom
open Mapping

type 'id row = {
  id : 'id;
  parent : 'id;
  ordinal : int;
  kind : string;  (* the kind code, see [Mapping.kind_code] *)
  name : string;  (* "" for text and comments *)
  value : string;  (* "" for elements *)
}

(* Rows by parent id; [Hashtbl.find_all] returns a parent's rows newest
   first. *)
let by_parent rows =
  let tbl = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.add tbl r.parent r) rows;
  tbl

let rec build children r : Dom.node =
  match r.kind with
  | "e" ->
    let kids =
      List.sort (fun a b -> compare a.ordinal b.ordinal) (Hashtbl.find_all children r.id)
    in
    let attrs, content = List.partition (fun c -> c.kind = "a") kids in
    Dom.Element
      {
        Dom.tag = r.name;
        attrs = List.map (fun a -> Dom.attr a.name a.value) attrs;
        children = List.map (build children) content;
      }
  | "t" | "a" -> Dom.Text r.value
  | "c" -> Dom.Comment r.value
  | "p" -> Dom.Pi { target = r.name; data = r.value }
  | k -> err "unknown kind %s" k

(* The subtree of the row with id [id]. *)
let node rows id =
  match List.find_opt (fun r -> r.id = id) rows with
  | Some r -> build (by_parent rows) r
  | None -> err "node is not stored"

(* Document [doc]: the one row whose parent is [top], the document node's
   id, must be an element. *)
let document ~doc ~top rows =
  let children = by_parent rows in
  match Hashtbl.find_all children top with
  | [ root ] -> (
    match build children root with
    | Dom.Element e -> Dom.document e
    | _ -> err "root is not an element")
  | [] -> err "document %d is not stored" doc
  | _ -> err "document %d has multiple roots" doc
