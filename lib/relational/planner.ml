(* Query planner: lowers a parsed SELECT into a [Plan.t].

   Pipeline: qualify column references -> split the WHERE conjunction ->
   choose per-table access paths (B+-tree index vs sequential scan) ->
   greedy join ordering (hash joins on equi-predicates, nested loops
   otherwise) -> aggregation rewriting -> sort/project/distinct/limit. *)

open Sql_ast

exception Plan_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

type catalog = { find_table : string -> Table.t option; stats : Stats.t }

let make_catalog find_table = { find_table; stats = Stats.create () }

let get_table cat name =
  match cat.find_table name with
  | Some t -> t
  | None -> err "no such table: %s" name

(* ------------------------------------------------------------------ *)
(* Expression utilities *)

let rec map_expr f e =
  match f e with
  | Some replaced -> replaced
  | None -> (
    match e with
    | Lit _ | Param _ | Col _ -> e
    | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
    | Unop (op, a) -> Unop (op, map_expr f a)
    | Is_null r -> Is_null { r with arg = map_expr f r.arg }
    | Like r -> Like { r with arg = map_expr f r.arg; pattern = map_expr f r.pattern }
    | In_list r -> In_list { r with arg = map_expr f r.arg; items = List.map (map_expr f) r.items }
    | Between r ->
      Between { arg = map_expr f r.arg; low = map_expr f r.low; high = map_expr f r.high }
    | Call r -> Call { r with args = List.map (map_expr f) r.args })

let rec split_and = function
  | Binop (And, a, b) -> split_and a @ split_and b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun acc e -> Binop (And, acc, e)) first rest)

let is_constant e =
  Sql_ast.fold_expr
    (fun acc sub -> acc && match sub with Col _ -> false | _ -> true)
    true e

(* ------------------------------------------------------------------ *)
(* Name qualification *)

type from_binding = { b_alias : string; b_table : Table.t }

let bind_from cat (from : table_ref list) =
  if from = [] then err "FROM clause is empty";
  let bindings =
    List.map
      (fun { table; alias } ->
        { b_alias = Option.value ~default:table alias; b_table = get_table cat table })
      from
  in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun b ->
      let key = String.lowercase_ascii b.b_alias in
      if Hashtbl.mem seen key then err "duplicate table alias %s" b.b_alias;
      Hashtbl.add seen key ())
    bindings;
  bindings

(* Rewrite every unqualified column to alias.column; fail on ambiguity. *)
let qualify bindings e =
  map_expr
    (function
      | Col { table = None; column } -> (
        let owners =
          List.filter
            (fun b -> Option.is_some (Schema.find_column (Table.schema b.b_table) column))
            bindings
        in
        match owners with
        | [ b ] -> Some (Col { table = Some b.b_alias; column })
        | [] -> err "unknown column %s" column
        | _ -> err "ambiguous column %s" column)
      | Col { table = Some t; column } ->
        let known =
          List.exists (fun b -> String.equal (String.lowercase_ascii b.b_alias) (String.lowercase_ascii t)) bindings
        in
        if not known then err "unknown table or alias %s" t
        else if
          not
            (List.exists
               (fun b ->
                 String.equal (String.lowercase_ascii b.b_alias) (String.lowercase_ascii t)
                 && Option.is_some (Schema.find_column (Table.schema b.b_table) column))
               bindings)
        then err "unknown column %s.%s" t column
        else None
      | _ -> None)
    e

(* Aliases referenced by an already-qualified expression. *)
let aliases_of e = Sql_ast.referenced_tables e

(* ------------------------------------------------------------------ *)
(* Access-path selection *)

(* Recognize a bound on a single column from one conjunct. Returns
   (column, lower, upper, is_exact) where is_exact says the conjunct is
   fully captured by the bounds (no residual filter needed). *)
type col_bound = {
  cb_column : string;
  cb_lower : (expr * bool) option;
  cb_upper : (expr * bool) option;
  cb_exact : bool;
}

let like_prefix pattern =
  (* Literal prefix of a LIKE pattern before the first wildcard. *)
  let n = String.length pattern in
  let rec go i = if i >= n || pattern.[i] = '%' || pattern.[i] = '_' then i else go (i + 1) in
  let k = go 0 in
  if k = 0 then None else Some (String.sub pattern 0 k)

(* Smallest string strictly greater than every string that starts with
   [prefix]: drop trailing '\xff' bytes (nothing sorts between "a\xff…"
   and the successor of "a") and increment the last remaining byte.
   [None] when the prefix is all '\xff' — no finite upper bound exists and
   the scan must stay open-ended. Appending "\xff" instead, as a naive
   bound, wrongly excludes stored values like "ab\xff…" from LIKE 'ab%'. *)
let like_prefix_successor prefix =
  let rec last_incrementable i =
    if i < 0 then None
    else if prefix.[i] = '\xff' then last_incrementable (i - 1)
    else Some i
  in
  match last_incrementable (String.length prefix - 1) with
  | None -> None
  | Some i -> Some (String.sub prefix 0 i ^ String.make 1 (Char.chr (Char.code prefix.[i] + 1)))

let conjunct_bound ~alias conjunct =
  let col_of = function
    | Col { table = Some t; column } when String.equal t alias -> Some column
    | _ -> None
  in
  match conjunct with
  | Binop (Eq, a, b) -> (
    match (col_of a, col_of b) with
    | Some c, None when is_constant b ->
      Some { cb_column = c; cb_lower = Some (b, true); cb_upper = Some (b, true); cb_exact = true }
    | None, Some c when is_constant a ->
      Some { cb_column = c; cb_lower = Some (a, true); cb_upper = Some (a, true); cb_exact = true }
    | _ -> None)
  | Binop (((Lt | Le | Gt | Ge) as op), a, b) -> (
    let bound col value op =
      match op with
      | Lt -> Some { cb_column = col; cb_lower = None; cb_upper = Some (value, false); cb_exact = true }
      | Le -> Some { cb_column = col; cb_lower = None; cb_upper = Some (value, true); cb_exact = true }
      | Gt -> Some { cb_column = col; cb_lower = Some (value, false); cb_upper = None; cb_exact = true }
      | Ge -> Some { cb_column = col; cb_lower = Some (value, true); cb_upper = None; cb_exact = true }
      | _ -> None
    in
    let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op in
    match (col_of a, col_of b) with
    | Some c, None when is_constant b -> bound c b op
    | None, Some c when is_constant a -> bound c a (flip op)
    | _ -> None)
  | Between { arg; low; high } -> (
    match col_of arg with
    | Some c when is_constant low && is_constant high ->
      Some { cb_column = c; cb_lower = Some (low, true); cb_upper = Some (high, true); cb_exact = true }
    | _ -> None)
  | Like { negated = false; arg; pattern = Lit (Value.Text p) } -> (
    match (col_of arg, like_prefix p) with
    | Some c, Some prefix ->
      (* prefix range ["p", successor(p)); the LIKE itself remains as
         residual. An all-'\xff' prefix has no successor: scan upward
         unbounded. *)
      let upper =
        Option.map
          (fun s -> (Lit (Value.Text s), false))
          (like_prefix_successor prefix)
      in
      Some
        {
          cb_column = c;
          cb_lower = Some (Lit (Value.Text prefix), true);
          cb_upper = upper;
          cb_exact = false;
        }
    | _ -> None)
  | _ -> None

(* IN-list over an indexed column becomes a set of index probes. *)
let conjunct_in_list ~alias conjunct =
  match conjunct with
  | In_list { negated = false; arg = Col { table = Some t; column }; items }
    when String.equal t alias && items <> [] && List.for_all is_constant items ->
    Some (column, items)
  | _ -> None

(* Pick an access path for one table given its pushed-down conjuncts.
   Returns the plan and the conjuncts that remain as a residual filter. *)
let access_path cat table ~alias conjuncts =
  let tbl_name = Table.name table in
  let candidates =
    List.filter_map
      (fun c -> match conjunct_bound ~alias c with Some b -> Some (c, b) | None -> None)
      conjuncts
  in
  (* Prefer an index whose leading column has an equality bound, then any
     bounded column with an index. *)
  let indexed (c, b) =
    match Schema.find_column (Table.schema table) b.cb_column with
    | None -> None
    | Some ci -> (
      match Table.index_with_prefix table [| ci |] with
      | Some ix -> Some (c, b, ix)
      | None -> None)
  in
  let with_index = List.filter_map indexed candidates in
  let is_eq (_, b, _) = match (b.cb_lower, b.cb_upper) with
    | Some (l, true), Some (u, true) -> l = u
    | _ -> false
  in
  (* among several indexed equality candidates, probe the most selective
     column (smallest 1/distinct) per the column statistics *)
  let selectivity (_, b, _) =
    match Schema.find_column (Table.schema table) b.cb_column with
    | Some ci -> Stats.eq_selectivity (Stats.get cat.stats table) ~column:ci
    | None -> 1.0
  in
  let choice =
    match List.filter is_eq with_index with
    | [] -> ( match with_index with c :: _ -> Some c | [] -> None)
    | [ c ] -> Some c
    | eqs ->
      Some
        (List.fold_left
           (fun best c -> if selectivity c < selectivity best then c else best)
           (List.hd eqs) (List.tl eqs))
  in
  let in_list_choice =
    List.find_map
      (fun c ->
        match conjunct_in_list ~alias c with
        | Some (column, items) -> (
          match Schema.find_column (Table.schema table) column with
          | None -> None
          | Some ci -> (
            match Table.index_with_prefix table [| ci |] with
            | Some ix -> Some (c, items, ix)
            | None -> None))
        | None -> None)
      conjuncts
  in
  match (choice, in_list_choice) with
  | None, Some (used, items, ix) ->
    let residual = List.filter (fun c -> c != used) conjuncts in
    ( Plan.Index_probes
        { table = tbl_name; alias; index_name = ix.Table.index_name; keys = items },
      residual )
  | None, None -> (Plan.Seq_scan { table = tbl_name; alias }, conjuncts)
  | Some (used_conjunct, b, ix), _ ->
    (* a one-sided range pairs up with a complementary one-sided range on
       the same column (e.g. pre > x AND pre <= y becomes one scan) *)
    let complement =
      if Option.is_none b.cb_lower || Option.is_none b.cb_upper then
        List.find_opt
          (fun (c2, b2, ix2) ->
            c2 != used_conjunct && ix2 == ix
            && String.equal b2.cb_column b.cb_column
            && b2.cb_exact
            &&
            match b.cb_lower with
            | None -> Option.is_some b2.cb_lower && Option.is_none b2.cb_upper
            | Some _ -> Option.is_some b2.cb_upper && Option.is_none b2.cb_lower)
          with_index
      else None
    in
    let lower, upper, used =
      match complement with
      | Some (c2, b2, _) ->
        ( (match b.cb_lower with Some l -> Some l | None -> b2.cb_lower),
          (match b.cb_upper with Some u -> Some u | None -> b2.cb_upper),
          [ used_conjunct; c2 ] )
      | None -> (b.cb_lower, b.cb_upper, [ used_conjunct ])
    in
    let residual =
      List.filter (fun c -> not (List.memq c used)) conjuncts
      @ (if b.cb_exact then [] else [ used_conjunct ])
    in
    ( Plan.Index_scan
        { table = tbl_name; alias; index_name = ix.Table.index_name; lower; upper },
      residual )

(* Cardinality estimate driving the greedy join order. Equality predicates
   on a known column use rows/distinct from the column statistics; range
   predicates with literal bounds use the column's equi-width histogram;
   other predicate shapes keep fixed selectivities. *)
let estimate cat ~alias table conjuncts =
  let base = float_of_int (max 1 (Table.row_count table)) in
  let stats = lazy (Stats.get cat.stats table) in
  let eq_col c =
    let col_of = function
      | Col { table = Some t; column } when String.equal t alias ->
        Schema.find_column (Table.schema table) column
      | _ -> None
    in
    match c with
    | Binop (Eq, a, b) -> (
      match (col_of a, col_of b) with
      | Some i, None when is_constant b -> Some i
      | None, Some i when is_constant a -> Some i
      | _ -> None)
    | _ -> None
  in
  let lit_bound = function Some (Lit v, incl) -> Some (v, incl) | _ -> None in
  let range_sel c =
    (* Histogram fraction when the conjunct is a recognizable bound with at
       least one literal endpoint; the fixed 1/4 guess otherwise. *)
    match conjunct_bound ~alias c with
    | Some b -> (
      match Schema.find_column (Table.schema table) b.cb_column with
      | Some i ->
        let lo = lit_bound b.cb_lower and hi = lit_bound b.cb_upper in
        if lo = None && hi = None then 0.25
        else Stats.range_selectivity (Lazy.force stats) ~column:i ~lower:lo ~upper:hi
      | None -> 0.25)
    | None -> 0.25
  in
  List.fold_left
    (fun est c ->
      match c with
      | Binop (Eq, _, _) -> (
        match eq_col c with
        | Some i -> est *. Stats.eq_selectivity (Lazy.force stats) ~column:i
        | None -> est /. 20.0)
      | Binop ((Lt | Le | Gt | Ge), _, _) | Between _ -> est *. range_sel c
      | Like _ -> est /. 10.0
      | _ -> est /. 2.0)
    base conjuncts

(* ------------------------------------------------------------------ *)
(* Plan-level cardinality estimation *)

(* Output-cardinality estimate for a physical plan node, driving the lint
   pass's row-explosion check and the est= column of EXPLAIN ANALYZE.
   Scans are statistics-backed (histograms for literal-bounded index
   ranges, distinct counts for point lookups); the operators above them
   apply coarse fixed selectivities. *)
let rec estimate_plan (cat : catalog) (plan : Plan.t) : int =
  let table_rows name =
    match cat.find_table name with
    | None -> 1
    | Some t -> (Stats.get cat.stats t).Stats.ts_rows
  in
  match plan with
  | Plan.Seq_scan { table; _ } -> max 1 (table_rows table)
  | Plan.Index_scan { table; index_name; lower; upper; _ } -> (
    let rows = max 1 (table_rows table) in
    let lit_bound = function Some (Lit v, incl) -> Some (Some (v, incl)) | Some _ -> None | None -> Some None in
    let stats_sel =
      match cat.find_table table with
      | None -> None
      | Some t -> (
        match Table.find_index t index_name with
        | Some ix when Array.length ix.Table.key_columns > 0 -> (
          match (lit_bound lower, lit_bound upper) with
          | Some lo, Some hi when not (lo = None && hi = None) ->
            let st = Stats.get cat.stats t in
            let column = ix.Table.key_columns.(0) in
            let point =
              match (lo, hi) with Some (l, true), Some (u, true) -> l = u | _ -> false
            in
            if point then Some (Stats.eq_selectivity st ~column)
            else Some (Stats.range_selectivity st ~column ~lower:lo ~upper:hi)
          | _ -> None)
        | _ -> None)
    in
    match stats_sel with
    | Some sel -> max 1 (int_of_float (Float.round (sel *. float_of_int rows)))
    | None ->
      let exact_point =
        match (lower, upper) with Some (l, true), Some (u, true) -> l = u | _ -> false
      in
      if exact_point then max 1 (rows / 100) else max 1 (rows / 4))
  | Plan.Index_probes { table; keys; _ } ->
    let rows = max 1 (table_rows table) in
    max 1 (min rows (List.length keys * max 1 (rows / 100)))
  | Plan.Filter (_, p) -> max 1 (estimate_plan cat p / 2)
  | Plan.Project (_, p) | Plan.Sort (_, p) -> estimate_plan cat p
  | Plan.Distinct p -> max 1 (estimate_plan cat p / 2)
  | Plan.Limit (n, p) -> min n (estimate_plan cat p)
  | Plan.Nl_join (a, b) -> estimate_plan cat a * estimate_plan cat b
  | Plan.Hash_join { build; probe; _ } -> max (estimate_plan cat build) (estimate_plan cat probe)
  | Plan.Staircase_join { left; right; _ } ->
    (* one match per descendant on average: bounded by the larger side *)
    max (estimate_plan cat left) (estimate_plan cat right)
  | Plan.Aggregate { group_by = []; _ } -> 1
  | Plan.Aggregate { input; _ } -> max 1 (estimate_plan cat input / 2)
  | Plan.Union_all ps -> List.fold_left (fun acc p -> acc + estimate_plan cat p) 0 ps

(* Fill the est= column of an executed tree. Only callers that capture or
   render the tree pay for it; an unobserved run never estimates. *)
let annotate_estimates cat (root : Plan.annotated) =
  Plan.fold_annotated
    (fun () (a : Plan.annotated) ->
      a.Plan.an_est <-
        (try Some (estimate_plan cat a.Plan.an_node) with Plan_error _ | Not_found -> None))
    () root

(* ------------------------------------------------------------------ *)
(* Join ordering *)

type join_input = { ji_alias : string; ji_plan : Plan.t; ji_est : float }

(* A conjunct [ea = eb] with ea over exactly one alias and eb over exactly
   one other alias is an equi-join predicate. *)
let as_equi_join conjunct =
  match conjunct with
  | Binop (Eq, a, b) -> (
    match (aliases_of a, aliases_of b) with
    | [ ta ], [ tb ] when not (String.equal ta tb) -> Some (ta, a, tb, b)
    | _ -> None)
  | _ -> None

(* Structural-join detection. A pair of pending theta conjuncts of the
   shape [k > lo AND k <= hi] (any strictness), with [k] over exactly one
   alias on one side and both bounds over alias(es) of the other side, is
   an interval containment predicate — the interval scheme's
   ancestor/descendant test — and plans as a Staircase_join instead of a
   cross product plus filter. *)

let staircase_enabled = Atomic.make true
let set_staircase b = Atomic.set staircase_enabled b

(* Each conjunct read both ways round: (key, bound, is_upper, strict)
   meaning [key > / >= bound] (lower) or [key < / <= bound] (upper). *)
let range_readings c =
  match c with
  | Binop (Gt, a, b) -> [ (a, b, false, true); (b, a, true, true) ]
  | Binop (Ge, a, b) -> [ (a, b, false, false); (b, a, true, false) ]
  | Binop (Lt, a, b) -> [ (a, b, true, true); (b, a, false, true) ]
  | Binop (Le, a, b) -> [ (a, b, true, false); (b, a, false, false) ]
  | _ -> []

(* Find a lower/upper pair over the same key expression among [pending],
   with the key over an alias satisfying [desc_ok] and the bounds over
   aliases satisfying [anc_ok]. Returns the two consumed conjuncts plus
   the staircase fields. *)
let containment_pair pending ~desc_ok ~anc_ok =
  let readings c =
    List.filter
      (fun (k, b, _, _) ->
        (match aliases_of k with [ a ] -> desc_ok a | _ -> false)
        &&
        let bs = aliases_of b in
        bs <> [] && List.for_all anc_ok bs)
      (range_readings c)
    |> List.map (fun r -> (c, r))
  in
  let all = List.concat_map readings pending in
  let lowers = List.filter (fun (_, (_, _, up, _)) -> not up) all in
  let uppers = List.filter (fun (_, (_, _, up, _)) -> up) all in
  List.find_map
    (fun (lc, (k, lo, _, lstrict)) ->
      List.find_map
        (fun (uc, (k', hi, _, ustrict)) ->
          if lc != uc && k = k' then Some (lc, uc, k, lo, hi, lstrict, ustrict) else None)
        uppers)
    lowers

let order_joins inputs join_preds extra_filters =
  match inputs with
  | [] -> err "nothing to join"
  | _ ->
    let remaining = ref (List.sort (fun a b -> Float.compare a.ji_est b.ji_est) inputs) in
    let first = List.hd !remaining in
    remaining := List.tl !remaining;
    let joined = ref [ first.ji_alias ] in
    let plan = ref first.ji_plan in
    let unused_preds = ref join_preds in
    (* Non-equi conjuncts spanning several tables (theta joins, e.g. the
       interval scheme's containment ranges) apply as soon as every alias
       they mention is in the joined prefix — not above the whole join
       tree, where rows from unrelated tables would be multiplied first. *)
    let pending = ref extra_filters in
    let apply_pending () =
      let ready, rest =
        List.partition
          (fun c -> List.for_all (fun a -> List.mem a !joined) (aliases_of c))
          !pending
      in
      pending := rest;
      match conjoin ready with None -> () | Some f -> plan := Plan.Filter (f, !plan)
    in
    apply_pending ();
    while !remaining <> [] do
      (* predicates connecting the joined set to each candidate *)
      let connecting cand =
        List.filter
          (fun (ta, _, tb, _) ->
            (List.mem ta !joined && String.equal tb cand.ji_alias)
            || (List.mem tb !joined && String.equal ta cand.ji_alias))
          !unused_preds
      in
      let connected = List.filter (fun c -> connecting c <> []) !remaining in
      (* No equi link: before falling back to a cross product, look for a
         containment pair linking the joined prefix to a candidate — either
         direction (candidate as descendant or as ancestor). *)
      let staircase_with cand =
        if not (Atomic.get staircase_enabled) then None
        else
          let is_cand a = String.equal a cand.ji_alias in
          let in_joined a = List.mem a !joined in
          match containment_pair !pending ~desc_ok:is_cand ~anc_ok:in_joined with
          | Some (lc, uc, k, lo, hi, ls, us) -> Some (lc, uc, k, lo, hi, ls, us, false)
          | None -> (
            match containment_pair !pending ~desc_ok:in_joined ~anc_ok:is_cand with
            | Some (lc, uc, k, lo, hi, ls, us) -> Some (lc, uc, k, lo, hi, ls, us, true)
            | None -> None)
      in
      let pick, staircase =
        match connected with
        | c :: _ -> (c, None)
        | [] -> (
          match
            List.find_map
              (fun c -> Option.map (fun s -> (c, s)) (staircase_with c))
              !remaining
          with
          | Some (c, s) -> (c, Some s)
          | None -> (List.hd !remaining, None) (* forced cross product *))
      in
      let preds = connecting pick in
      (match (staircase, preds) with
      | Some (lc, uc, k, lo, hi, lower_strict, upper_strict, desc_on_left), _ ->
        plan :=
          Plan.Staircase_join
            {
              left = !plan;
              right = pick.ji_plan;
              desc_on_left;
              desc_key = k;
              anc_lower = lo;
              anc_upper = hi;
              lower_strict;
              upper_strict;
            };
        (* consumed: must not re-apply as a filter once the pair's aliases
           are all in the joined prefix *)
        pending := List.filter (fun c -> c != lc && c != uc) !pending
      | None, [] -> plan := Plan.Nl_join (!plan, pick.ji_plan)
      | None, preds ->
        let probe_keys, build_keys =
          List.split
            (List.map
               (fun (ta, ea, _tb, eb) ->
                 if List.mem ta !joined then (ea, eb) else (eb, ea))
               preds)
        in
        plan :=
          Plan.Hash_join { build = pick.ji_plan; probe = !plan; build_keys; probe_keys };
        unused_preds := List.filter (fun p -> not (List.memq p preds)) !unused_preds);
      joined := pick.ji_alias :: !joined;
      remaining := List.filter (fun c -> c != pick) !remaining;
      apply_pending ()
    done;
    (!plan, !unused_preds, !pending)

(* ------------------------------------------------------------------ *)
(* Aggregation rewriting *)

let find_aggregates exprs =
  let add acc e = if List.exists (fun x -> x = e) acc then acc else acc @ [ e ] in
  List.fold_left
    (fun acc e ->
      Sql_ast.fold_expr (fun acc sub -> if is_aggregate_call sub then add acc sub else acc) acc e)
    [] exprs

let agg_of_call = function
  | Call { func; star; distinct; args } ->
    {
      Plan.agg_func = String.lowercase_ascii func;
      agg_distinct = distinct;
      agg_star = star;
      agg_arg = (match args with [ a ] -> Some a | [] -> None | _ -> err "aggregates take one argument");
    }
  | _ -> assert false

(* Replace group-by expressions with #gI and aggregate calls with #aI. *)
let rewrite_post_agg ~group_by ~agg_calls e =
  let find_index p l =
    let rec go i = function [] -> None | x :: r -> if p x then Some i else go (i + 1) r in
    go 0 l
  in
  map_expr
    (fun sub ->
      match find_index (fun g -> g = sub) group_by with
      | Some i -> Some (Col { table = None; column = Printf.sprintf "#g%d" i })
      | None -> (
        match find_index (fun a -> a = sub) agg_calls with
        | Some i -> Some (Col { table = None; column = Printf.sprintf "#a%d" i })
        | None -> None))
    e

(* ------------------------------------------------------------------ *)
(* SELECT planning *)

let expand_projections bindings projections =
  List.concat_map
    (function
      | All ->
        List.concat_map
          (fun b ->
            List.map
              (fun c -> (Col { table = Some b.b_alias; column = c }, c))
              (Schema.column_names (Table.schema b.b_table)))
          bindings
      | Table_all t -> (
        match
          List.find_opt
            (fun b -> String.equal (String.lowercase_ascii b.b_alias) (String.lowercase_ascii t))
            bindings
        with
        | None -> err "unknown table or alias %s in %s.*" t t
        | Some b ->
          List.map
            (fun c -> (Col { table = Some b.b_alias; column = c }, c))
            (Schema.column_names (Table.schema b.b_table)))
      | Proj (e, alias) ->
        let name =
          match alias with
          | Some a -> a
          | None -> (
            match e with
            | Col { column; _ } -> column
            | e -> Sql_ast.expr_to_string e)
        in
        [ (e, name) ])
    projections

let plan_select cat (s : select) : Plan.t =
  let bindings = bind_from cat s.from in
  let projections = expand_projections bindings s.projections in
  (* Substitute projection aliases appearing in ORDER BY / HAVING. *)
  let alias_subst e =
    map_expr
      (function
        | Col { table = None; column } -> (
          match
            List.find_opt
              (fun (pe, name) ->
                String.equal (String.lowercase_ascii name) (String.lowercase_ascii column)
                && (match pe with Col { column = c; _ } -> not (String.equal c column) | _ -> true))
              projections
          with
          | Some (pe, _) -> Some pe
          | None -> None)
        | _ -> None)
      e
  in
  let order_by =
    List.map (fun o -> { o with order_expr = alias_subst o.order_expr }) s.order_by
  in
  let having = Option.map alias_subst s.having in
  (* Qualify everything. *)
  let projections = List.map (fun (e, n) -> (qualify bindings e, n)) projections in
  let where = Option.map (qualify bindings) s.where in
  let group_by = List.map (qualify bindings) s.group_by in
  let having = Option.map (qualify bindings) having in
  let order_by = List.map (fun o -> { o with order_expr = qualify bindings o.order_expr }) order_by in
  (* Split and classify conjuncts. *)
  let conjuncts = match where with None -> [] | Some w -> split_and w in
  let join_preds = List.filter_map as_equi_join conjuncts in
  let join_pred_exprs = List.filter (fun c -> as_equi_join c <> None) conjuncts in
  let single_table_of c =
    match aliases_of c with [ a ] -> Some a | _ -> None
  in
  let pushed, leftover =
    List.partition
      (fun c -> (not (List.memq c join_pred_exprs)) && single_table_of c <> None)
      (List.filter (fun c -> not (List.memq c join_pred_exprs)) conjuncts)
    |> fun (p, l) -> (p, l)
  in
  (* Per-table access paths. *)
  let inputs =
    List.map
      (fun b ->
        let mine =
          List.filter
            (fun c -> match single_table_of c with
              | Some a -> String.equal a b.b_alias
              | None -> false)
            pushed
        in
        let path, residual = access_path cat b.b_table ~alias:b.b_alias mine in
        let plan = match conjoin residual with None -> path | Some f -> Plan.Filter (f, path) in
        { ji_alias = b.b_alias; ji_plan = plan; ji_est = estimate cat ~alias:b.b_alias b.b_table mine })
      bindings
  in
  let joined, unused_join_preds, unplaced = order_joins inputs join_preds leftover in
  let leftover_exprs =
    unplaced @ List.map (fun (_, a, _, b) -> Binop (Eq, a, b)) unused_join_preds
  in
  let plan = match conjoin leftover_exprs with None -> joined | Some f -> Plan.Filter (f, joined) in
  (* Aggregation. *)
  let proj_exprs = List.map fst projections in
  let scanned_exprs =
    proj_exprs @ Option.to_list having @ List.map (fun o -> o.order_expr) order_by
  in
  let agg_calls = find_aggregates scanned_exprs in
  let needs_agg = agg_calls <> [] || group_by <> [] in
  let plan, projections, having, order_by =
    if not needs_agg then (plan, projections, having, order_by)
    else begin
      let aggregates = List.map agg_of_call agg_calls in
      let plan = Plan.Aggregate { group_by; aggregates; input = plan } in
      let rw = rewrite_post_agg ~group_by ~agg_calls in
      ( plan,
        List.map (fun (e, n) -> (rw e, n)) projections,
        Option.map rw having,
        List.map (fun o -> { o with order_expr = rw o.order_expr }) order_by )
    end
  in
  let plan = match having with None -> plan | Some h -> Plan.Filter (h, plan) in
  let plan = match order_by with [] -> plan | items -> Plan.Sort (items, plan) in
  let plan = Plan.Project (projections, plan) in
  let plan = if s.distinct then Plan.Distinct plan else plan in
  match s.limit with None -> plan | Some n -> Plan.Limit (n, plan)

let plan_query cat (q : query) : Plan.t =
  match List.map (plan_select cat) q with
  | [ p ] -> p
  | ps -> Plan.Union_all ps
