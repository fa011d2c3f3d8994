(* Shared path analysis for the SQL translators.

   Every mapping scheme translates the same "simple path" intermediate form:
   downward navigation (child / descendant steps) with name or wildcard
   tests, simple value predicates, and an element, attribute, or text
   target. [analyze] lowers an XPath AST into this form; paths outside the
   form (positional predicates, upward axes, arithmetic in predicates, ...)
   return [None] and the caller falls back to reconstructing the document
   and evaluating natively — the honest cost of an untranslatable query. *)

module Ast = Xpathkit.Ast
module Sb = Relstore.Sql_build

type cmp = Ceq | Cneq | Clt | Cle | Cgt | Cge

let cmp_to_sql = function
  | Ceq -> "="
  | Cneq -> "<>"
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

(* The SQL AST operator for a comparison; translators build conditions with
   this instead of splicing operator text. *)
let cmp_binop : cmp -> Relstore.Sql_ast.binop = function
  | Ceq -> Relstore.Sql_ast.Eq
  | Cneq -> Relstore.Sql_ast.Neq
  | Clt -> Relstore.Sql_ast.Lt
  | Cle -> Relstore.Sql_ast.Le
  | Cgt -> Relstore.Sql_ast.Gt
  | Cge -> Relstore.Sql_ast.Ge

(* The SQL condition for an XPath number comparison [number(x) op v], [x]
   a stored text column and [v] bound through [b]. SQL's [to_number] is
   NULL where XPath's number() is NaN, and NaN != v holds, so for [!=] a
   stored value that is not a number is selected too. *)
let number_cond b op x v =
  let n = Sb.to_number x in
  let c = Sb.cmp (cmp_binop op) n (Sb.pfloat b v) in
  match op with
  | Cneq ->
    Sb.cmp Relstore.Sql_ast.And (Sb.is_not_null x) (Sb.cmp Relstore.Sql_ast.Or (Sb.is_null n) c)
  | Ceq | Clt | Cle | Cgt | Cge -> c

(* The same comparisons evaluated on a stored string, with the native
   evaluator's conversion: strings compare for [=]/[!=] (the only
   operators a string predicate carries), numbers through number(). *)
let string_holds op s v = match op with Cneq -> s <> v | _ -> s = v

let number_holds op s v =
  let x = Xpathkit.Eval.number_of_string s in
  match op with
  | Ceq -> x = v
  | Cneq -> x <> v
  | Clt -> x < v
  | Cle -> x <= v
  | Cgt -> x > v
  | Cge -> x >= v

(* Predicates against the step's context element. [target] is a direct
   child element name or an attribute name. *)
type pred =
  | Child_value of string * cmp * string  (* [b = 'v'] : child b's text *)
  | Child_number of string * cmp * float  (* [b > 3] *)
  | Attr_value of string * cmp * string  (* [@a = 'v'] *)
  | Attr_number of string * cmp * float
  | Has_child of string  (* [b] *)
  | Has_attr of string  (* [@a] *)

type test = Tag of string | Any_tag

type step = {
  desc : bool;  (* reached via //: any depth below the previous node *)
  test : test;
  preds : pred list;
}

(* What the path finally selects. *)
type target =
  | Elements  (* the last step's elements *)
  | Attr_of of string  (* .../@name: attribute of the previous element *)
  | Text_of  (* .../text() *)

type t = { steps : step list; tgt : target }

let test_to_string = function Tag s -> s | Any_tag -> "*"

let pred_to_string = function
  | Child_value (c, op, v) -> Printf.sprintf "[%s %s '%s']" c (cmp_to_sql op) v
  | Child_number (c, op, v) -> Printf.sprintf "[%s %s %g]" c (cmp_to_sql op) v
  | Attr_value (a, op, v) -> Printf.sprintf "[@%s %s '%s']" a (cmp_to_sql op) v
  | Attr_number (a, op, v) -> Printf.sprintf "[@%s %s %g]" a (cmp_to_sql op) v
  | Has_child c -> Printf.sprintf "[%s]" c
  | Has_attr a -> Printf.sprintf "[@%s]" a

let to_string t =
  String.concat ""
    (List.map
       (fun s ->
         (if s.desc then "//" else "/")
         ^ test_to_string s.test
         ^ String.concat "" (List.map pred_to_string s.preds))
       t.steps)
  ^ (match t.tgt with Elements -> "" | Attr_of a -> "/@" ^ a | Text_of -> "/text()")

(* ------------------------------------------------------------------ *)
(* Lowering *)

let cmp_of_binary = function
  | Ast.Eq -> Some Ceq
  | Ast.Neq -> Some Cneq
  | Ast.Lt -> Some Clt
  | Ast.Le -> Some Cle
  | Ast.Gt -> Some Cgt
  | Ast.Ge -> Some Cge
  | _ -> None

(* A one-step relative child path with a name test and no predicates. *)
let as_child_name (e : Ast.expr) =
  match e with
  | Ast.Path { absolute = false; steps = [ { axis = Ast.Child; test = Ast.Name n; predicates = [] } ] } ->
    Some (`Child n)
  | Ast.Path
      { absolute = false; steps = [ { axis = Ast.Attribute; test = Ast.Name n; predicates = [] } ] } ->
    Some (`Attr n)
  | _ -> None

let lower_pred (e : Ast.expr) : pred option =
  match e with
  | Ast.Path _ -> (
    match as_child_name e with
    | Some (`Child n) -> Some (Has_child n)
    | Some (`Attr n) -> Some (Has_attr n)
    | None -> None)
  | Ast.Binary (op, lhs, rhs) -> (
    match cmp_of_binary op with
    | None -> None
    (* XPath converts <,<=,>,>= operands to numbers; only =/!= compare
       strings, so ordered comparisons against string literals are left to
       the fallback evaluator *)
    | Some ((Clt | Cle | Cgt | Cge) as c)
      when (match rhs with Ast.Literal _ -> true | _ -> false)
           || (match lhs with Ast.Literal _ -> true | _ -> false) ->
      ignore c;
      None
    | Some c -> (
      match (as_child_name lhs, rhs) with
      | Some (`Child n), Ast.Literal v -> Some (Child_value (n, c, v))
      | Some (`Child n), Ast.Number v -> Some (Child_number (n, c, v))
      | Some (`Attr n), Ast.Literal v -> Some (Attr_value (n, c, v))
      | Some (`Attr n), Ast.Number v -> Some (Attr_number (n, c, v))
      | _ -> (
        (* literal on the left: flip *)
        match (as_child_name rhs, lhs) with
        | Some (`Child n), Ast.Literal v -> Some (Child_value (n, c, v))
        | Some (`Child n), Ast.Number v ->
          let flip = function Clt -> Cgt | Cle -> Cge | Cgt -> Clt | Cge -> Cle | c -> c in
          Some (Child_number (n, flip c, v))
        | Some (`Attr n), Ast.Literal v -> Some (Attr_value (n, c, v))
        | Some (`Attr n), Ast.Number v ->
          let flip = function Clt -> Cgt | Cle -> Cge | Cgt -> Clt | Cge -> Cle | c -> c in
          Some (Attr_number (n, flip c, v))
        | _ -> None)))
  | _ -> None

let lower_preds preds =
  let lowered = List.map lower_pred preds in
  if List.exists Option.is_none lowered then None else Some (List.filter_map Fun.id lowered)

(* [analyze_update path] requires an absolute path. Update paths address
   stored nodes and cannot fall back, so they keep every comparison; one
   against a child element reads the child's own text. *)
let analyze_update (p : Ast.path) : t option =
  if not p.Ast.absolute then None
  else begin
    let rec go pending_desc acc (steps : Ast.step list) =
      match steps with
      | [] -> Some (List.rev acc, Elements)
      | { axis = Ast.Descendant_or_self; test = Ast.Node_test; predicates = [] } :: rest ->
        (* the '//' marker step *)
        go true acc rest
      | [ { axis = Ast.Attribute; test = Ast.Name n; predicates = [] } ] when not pending_desc ->
        Some (List.rev acc, Attr_of n)
      | [ { axis = Ast.Child; test = Ast.Text_test; predicates = [] } ] when not pending_desc ->
        Some (List.rev acc, Text_of)
      | { axis = Ast.Child; test; predicates } :: rest -> (
        let tst =
          match test with
          | Ast.Name n -> Some (Tag n)
          | Ast.Wildcard -> Some Any_tag
          | _ -> None
        in
        match (tst, lower_preds predicates) with
        | Some test, Some preds -> go false ({ desc = pending_desc; test; preds } :: acc) rest
        | _ -> None)
      | { axis = Ast.Descendant; test; predicates } :: rest -> (
        (* descendant::t behaves as //t *)
        let tst =
          match test with
          | Ast.Name n -> Some (Tag n)
          | Ast.Wildcard -> Some Any_tag
          | _ -> None
        in
        match (tst, lower_preds predicates) with
        | Some test, Some preds -> go false ({ desc = true; test; preds } :: acc) rest
        | _ -> None)
      | _ -> None
    in
    match go false [] p.Ast.steps with
    | Some (steps, tgt) when steps <> [] -> Some { steps; tgt }
    | Some _ | None -> None
  end

(* The query subset. XPath compares a child element by its string-value,
   the text of all its descendants; the translations read the child's own
   text, which is the same only while the child has no element children.
   For [=] a child with element children would match only by coincidence,
   so [=] stays translated; for [!=] and the ordered operators such a child
   usually decides the outcome, so those paths are answered natively. *)
let analyze p =
  let reads_child_text = function
    | Child_value (_, op, _) | Child_number (_, op, _) -> op <> Ceq
    | Attr_value _ | Attr_number _ | Has_child _ | Has_attr _ -> false
  in
  match analyze_update p with
  | Some t when List.exists (fun s -> List.exists reads_child_text s.preds) t.steps -> None
  | r -> r

(* Join-count estimate of a simple path: one join per step plus one per
   value predicate (used for experiment T4 reporting by translators that
   produce a single statement). *)
let pred_join_cost = function
  | Child_value _ | Child_number _ -> 2  (* child element + its text *)
  | Attr_value _ | Attr_number _ | Has_child _ | Has_attr _ -> 1

let base_join_count t =
  let steps = List.length t.steps in
  let preds =
    List.fold_left (fun acc s -> List.fold_left (fun a p -> a + pred_join_cost p) acc s.preds) 0 t.steps
  in
  steps - 1 + preds
  + (match t.tgt with Elements -> 0 | Attr_of _ | Text_of -> 1)
