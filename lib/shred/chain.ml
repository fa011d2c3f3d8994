(* The join-chain compiler shared by the node-table schemes: Edge, Binary,
   Interval and Dewey. A path becomes one SELECT over self-joins of the
   scheme's node table. Each step is one alias, linked to the previous
   step's alias by the parent column (a child step) or by the scheme's
   descendant condition (a '//' step). Each predicate joins the child it
   tests, and its text node for a child comparison. An [@a] or [text()]
   target joins one more alias, whose id is the answer.

   The schemes differ only in the constants of [scheme]. Document ids,
   names and comparison values are bound parameters; kind codes stay
   inline, because they are part of the query shape. *)

module P = Pathquery
module Sb = Relstore.Sql_build
open Mapping

type scheme = {
  table : kind:string -> string option -> string option;
      (** The table holding nodes of [kind] ("e", "a" or "t") with the given
          name, or [None] when no stored node has that label: the answer is
          then empty. *)
  labelled : bool;  (** Must an alias test its kind and name? Not where the table fixes both. *)
  id : string;  (** The node id column, which is also the answer column. *)
  parent : string;  (** The parent id column. *)
  root : Relstore.Sql_ast.expr;  (** The parent id of the root element. *)
  descendant : (anc:string -> string -> Relstore.Sql_ast.expr list) option;
      (** [descendant ~anc d]: alias [d] is a descendant of alias [anc].
          [None] where '//' has no one-statement form. *)
  alias : string;  (** The alias prefix. *)
}

exception Absent

(* The statement for [simple] and its parameters; raises [Absent] when a
   label it names is stored nowhere, so the answer is empty. *)
let compile s ~doc (simple : P.t) =
  let b = Sb.binder () in
  let pdoc = Sb.pint b doc in
  let count = ref 0 and froms = ref [] and wheres = ref [] in
  let add_where w = wheres := w :: !wheres in
  (* a fresh alias over the table of [kind] nodes named [name] *)
  let join ~kind name =
    match s.table ~kind name with
    | None -> raise Absent
    | Some tbl ->
      incr count;
      let a = Printf.sprintf "%s%d" s.alias !count in
      froms := Sb.from ~alias:a tbl :: !froms;
      a
  in
  let child_of a p = Sb.eq (acol a s.parent) (acol p s.id) in
  let kind_name a ~kind name =
    if not s.labelled then []
    else
      Sb.eq (acol a "kind") (Sb.text kind)
      :: (match name with Some n -> [ Sb.eq (acol a "name") (Sb.ptext b n) ] | None -> [])
  in
  (* alias [a] is a [kind] child of alias [p] named [name] *)
  let child a p ~kind name =
    add_where (Sb.eq (acol a "doc") pdoc);
    add_where (child_of a p);
    List.iter add_where (kind_name a ~kind name)
  in
  let pred cur (p : P.pred) =
    let str op v col = Sb.cmp (P.cmp_binop op) col (Sb.ptext b v) in
    let num op v col = P.number_cond b op col v in
    let kind, name, test, on_text =
      match p with
      | P.Has_child c -> ("e", c, None, false)
      | P.Has_attr a -> ("a", a, None, false)
      | P.Attr_value (a, op, v) -> ("a", a, Some (str op v), false)
      | P.Attr_number (a, op, v) -> ("a", a, Some (num op v), false)
      | P.Child_value (c, op, v) -> ("e", c, Some (str op v), true)
      | P.Child_number (c, op, v) -> ("e", c, Some (num op v), true)
    in
    let a = join ~kind (Some name) in
    let t = if on_text then Some (join ~kind:"t" None) else None in
    (* the compared value binds before the name *)
    let cond = Option.map (fun test -> test (acol (Option.value t ~default:a) "value")) test in
    child a cur ~kind (Some name);
    Option.iter (fun t -> child t a ~kind:"t" None) t;
    Option.iter add_where cond
  in
  let step prev (st : P.step) =
    let name = match st.P.test with P.Tag n -> Some n | P.Any_tag -> None in
    let e = join ~kind:"e" name in
    add_where (Sb.eq (acol e "doc") pdoc);
    List.iter add_where (kind_name e ~kind:"e" name);
    (match (prev, st.P.desc, s.descendant) with
    | None, false, _ -> add_where (Sb.eq (acol e s.parent) s.root)
    | None, true, Some _ -> () (* any element in the document *)
    | Some p, false, _ -> add_where (child_of e p)
    | Some p, true, Some desc -> List.iter add_where (desc ~anc:p e)
    | _, true, None -> invalid_arg "Chain.compile: '//' without a descendant join");
    List.iter (pred e) st.P.preds;
    Some e
  in
  let last =
    match List.fold_left step None simple.P.steps with Some e -> e | None -> err "empty path"
  in
  let target =
    match simple.P.tgt with
    | P.Elements -> last
    | P.Attr_of a ->
      let at = join ~kind:"a" (Some a) in
      child at last ~kind:"a" (Some a);
      at
    | P.Text_of ->
      let tx = join ~kind:"t" None in
      child tx last ~kind:"t" None;
      tx
  in
  let result = acol target s.id in
  ( Sb.query
      [
        Sb.select ~distinct:true ~from:(List.rev !froms) ~where:(List.rev !wheres)
          ~order_by:[ Sb.asc result ] [ Sb.proj result ];
      ],
    Sb.params b )

(* Compile under a translate span and run: the answer column read by
   [column], the statements run, and the plan's join count. An absent
   label answers empty without running a statement. *)
let run s ~scheme db ~doc simple column =
  match traced_translate ~scheme (fun () -> compile s ~doc simple) with
  | exception Absent -> ([], [], 0)
  | q, params ->
    let sqls = ref [] and joins = ref 0 in
    let r = run_built db ~joins ~sqls ~params q in
    (column r, List.rev !sqls, !joins)
