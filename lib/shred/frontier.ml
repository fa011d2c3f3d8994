(* Stepwise path evaluation, shared by the navigational schemes (Edge,
   Binary, Universal). A path that is not one join chain runs step by step
   over a frontier of nodes: each step fetches the frontier's children in
   batches of ids, a '//' step does so once per tree level, and each match
   is then tested against the step's predicates. The loop is written once
   here; a scheme supplies only what differs (see [SCHEME]): how one level
   of children is fetched, how a predicate is tested on one node, and how
   the final [@a] / [text()] targets are fetched. *)

module Db = Relstore.Database
module P = Pathquery

(* One evaluation: [sqls] collects the reported statements, newest first. *)
type ctx = { db : Db.t; doc : int; sqls : string list ref }

module type SCHEME = sig
  type node
  (** A frontier member: a node id, or a row the scheme decoded. *)

  type leaf
  (** What an [@a] or [text()] target yields. *)

  val root : node
  (** The document node: the frontier before the first step. *)

  val key : node -> int
  (** The node id, which orders and de-duplicates a frontier. *)

  val tag : (node -> string) option
  (** The element name a node carries, when its fetch decodes one. A '//'
      level then filters one fetch of all children by name; without it,
      the level fetches the named children a second time. *)

  val children : ctx -> node list -> string option -> node list
  (** Element children of the frontier, only those with the given name if
      one is given. *)

  val holds : ctx -> node -> P.pred -> bool
  (** Does one node satisfy one predicate of its step? *)

  val attrs : ctx -> node list -> string -> leaf list
  (** The named attributes of the final frontier. *)

  val texts : ctx -> node list -> leaf list
  (** The text children of the final frontier. *)
end

type ('n, 'l) answer = Nodes of 'n list | Leaves of 'l list

(* [f] over [ids] in chunks of at most 100, so an IN list stays bounded. *)
let batched ids f =
  let rec chunks acc = function
    | [] -> List.rev acc
    | ids ->
      let rec take n acc = function
        | [] -> (List.rev acc, [])
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = take 100 [] ids in
      chunks (chunk :: acc) rest
  in
  List.concat_map f (chunks [] ids)

(* Can the path be one join-chain statement? Not with a '//' step, nor with
   a '*' step unless the scheme's chain joins one table whatever the name
   ([~wildcards]). *)
let is_named_chain ~wildcards (simple : P.t) =
  List.for_all
    (fun (s : P.step) -> (not s.P.desc) && (wildcards || s.P.test <> P.Any_tag))
    simple.P.steps

(* Evaluate [simple] from the document root; returns the answer and the
   statements it ran, in order. *)
let stepwise (type n l) (module S : SCHEME with type node = n and type leaf = l) db ~doc
    (simple : P.t) : (n, l) answer * string list =
  let ctx = { db; doc; sqls = ref [] } in
  let sort_uniq nodes = List.sort_uniq (fun a b -> compare (S.key a) (S.key b)) nodes in
  let step frontier (s : P.step) =
    let name = match s.P.test with P.Tag n -> Some n | P.Any_tag -> None in
    let rec levels acc = function
      | [] -> acc
      | current ->
        let all = S.children ctx current None in
        let hits =
          match (name, S.tag) with
          | None, _ -> all
          | Some n, Some tag -> List.filter (fun x -> tag x = n) all
          | Some _, None -> S.children ctx current name
        in
        levels (hits @ acc) all
    in
    let matches =
      if s.P.desc then sort_uniq (levels [] frontier)
      else sort_uniq (S.children ctx frontier name)
    in
    List.filter (fun x -> List.for_all (S.holds ctx x) s.P.preds) matches
  in
  let final = List.fold_left step [ S.root ] simple.P.steps in
  let answer =
    match simple.P.tgt with
    | P.Elements -> Nodes final
    | P.Attr_of a -> Leaves (List.sort_uniq compare (S.attrs ctx final a))
    | P.Text_of -> Leaves (List.sort_uniq compare (S.texts ctx final))
  in
  (answer, List.rev !(ctx.sqls))

(* The target ids, for schemes whose nodes and leaves are both ids. *)
let ids : (int, int) answer -> int list = function Nodes ids | Leaves ids -> ids
