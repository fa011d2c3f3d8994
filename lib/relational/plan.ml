(* Logical/physical query plan. The planner lowers a parsed SELECT into this
   tree; the executor interprets it with the iterator model. *)

type agg = {
  agg_func : string;  (* count | sum | avg | min | max, lowercased *)
  agg_distinct : bool;
  agg_star : bool;
  agg_arg : Sql_ast.expr option;
}

type t =
  | Seq_scan of { table : string; alias : string }
  | Index_scan of {
      table : string;
      alias : string;
      index_name : string;
      (* Bounds are constant expressions over the leading index column,
         evaluated once when the cursor opens. *)
      lower : (Sql_ast.expr * bool) option;  (* expr, inclusive *)
      upper : (Sql_ast.expr * bool) option;
    }
  | Index_probes of {
      table : string;
      alias : string;
      index_name : string;
      (* constant probe keys for the leading index column (IN-list) *)
      keys : Sql_ast.expr list;
    }
  | Filter of Sql_ast.expr * t
  | Project of (Sql_ast.expr * string) list * t
  | Nl_join of t * t  (* cross product; equi-joins become Hash_join *)
  | Hash_join of {
      build : t;
      probe : t;
      build_keys : Sql_ast.expr list;
      probe_keys : Sql_ast.expr list;
    }
  | Staircase_join of {
      left : t;  (* output rows are left-row ++ right-row, like the other joins *)
      right : t;
      desc_on_left : bool;  (* which side carries the descendant key *)
      desc_key : Sql_ast.expr;  (* e.g. d.pre, over the descendant side *)
      anc_lower : Sql_ast.expr;  (* e.g. a.pre, over the ancestor side *)
      anc_upper : Sql_ast.expr;  (* e.g. a.pre + a.size *)
      lower_strict : bool;  (* key > lower vs key >= lower *)
      upper_strict : bool;  (* key < upper vs key <= upper *)
    }
  | Aggregate of { group_by : Sql_ast.expr list; aggregates : agg list; input : t }
  | Sort of Sql_ast.order_item list * t
  | Distinct of t
  | Limit of int * t
  | Union_all of t list

let agg_to_string a =
  if a.agg_star then Printf.sprintf "%s(*)" a.agg_func
  else
    Printf.sprintf "%s(%s%s)" a.agg_func
      (if a.agg_distinct then "DISTINCT " else "")
      (match a.agg_arg with Some e -> Sql_ast.expr_to_string e | None -> "")

(* The operator's kind: a constant, so naming a span costs no rendering. *)
let node_kind = function
  | Seq_scan _ -> "SeqScan"
  | Index_scan _ -> "IndexScan"
  | Index_probes _ -> "IndexProbes"
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Nl_join _ -> "NestedLoopJoin"
  | Hash_join _ -> "HashJoin"
  | Staircase_join _ -> "StaircaseJoin"
  | Aggregate _ -> "Aggregate"
  | Sort _ -> "Sort"
  | Distinct _ -> "Distinct"
  | Limit _ -> "Limit"
  | Union_all _ -> "UnionAll"

(* One operator's own EXPLAIN line, without its children. *)
let node_line plan =
  match plan with
  | Seq_scan { table; alias } ->
    Printf.sprintf "SeqScan %s%s" table (if alias = table then "" else " AS " ^ alias)
  | Index_scan { table; alias; index_name; lower; upper } ->
    let bound_str = function
      | None -> "-inf/+inf"
      | Some (e, incl) -> Sql_ast.expr_to_string e ^ if incl then " (incl)" else " (excl)"
    in
    Printf.sprintf "IndexScan %s%s USING %s [%s .. %s]" table
      (if alias = table then "" else " AS " ^ alias)
      index_name (bound_str lower) (bound_str upper)
  | Index_probes { table; alias; index_name; keys } ->
    Printf.sprintf "IndexProbes %s%s USING %s IN (%s)" table
      (if alias = table then "" else " AS " ^ alias)
      index_name
      (String.concat ", " (List.map Sql_ast.expr_to_string keys))
  | Filter (e, _) -> Printf.sprintf "Filter (%s)" (Sql_ast.expr_to_string e)
  | Project (cols, _) ->
    Printf.sprintf "Project [%s]"
      (String.concat ", " (List.map (fun (e, n) -> Sql_ast.expr_to_string e ^ " AS " ^ n) cols))
  | Nl_join _ -> "NestedLoopJoin"
  | Staircase_join { desc_key; anc_lower; anc_upper; lower_strict; upper_strict; _ } ->
    Printf.sprintf "StaircaseJoin (%s %s %s AND %s %s %s)"
      (Sql_ast.expr_to_string desc_key)
      (if lower_strict then ">" else ">=")
      (Sql_ast.expr_to_string anc_lower)
      (Sql_ast.expr_to_string desc_key)
      (if upper_strict then "<" else "<=")
      (Sql_ast.expr_to_string anc_upper)
  | Hash_join { build_keys; probe_keys; _ } ->
    Printf.sprintf "HashJoin (%s = %s)"
      (String.concat ", " (List.map Sql_ast.expr_to_string probe_keys))
      (String.concat ", " (List.map Sql_ast.expr_to_string build_keys))
  | Aggregate { group_by; aggregates; _ } ->
    Printf.sprintf "Aggregate [%s]%s"
      (String.concat ", " (List.map agg_to_string aggregates))
      (match group_by with
      | [] -> ""
      | gs -> " GROUP BY " ^ String.concat ", " (List.map Sql_ast.expr_to_string gs))
  | Sort (items, _) ->
    Printf.sprintf "Sort [%s]"
      (String.concat ", "
         (List.map
            (fun { Sql_ast.order_expr; descending } ->
              Sql_ast.expr_to_string order_expr ^ if descending then " DESC" else "")
            items))
  | Distinct _ -> "Distinct"
  | Limit (n, _) -> Printf.sprintf "Limit %d" n
  | Union_all _ -> "UnionAll"

(* Children in EXPLAIN display order (hash join: probe above build). *)
let display_children = function
  | Seq_scan _ | Index_scan _ | Index_probes _ -> []
  | Filter (_, p) | Project (_, p) | Sort (_, p) | Distinct p | Limit (_, p) -> [ p ]
  | Aggregate { input; _ } -> [ input ]
  | Nl_join (l, r) -> [ l; r ]
  | Staircase_join { left; right; _ } -> [ left; right ]
  | Hash_join { build; probe; _ } -> [ probe; build ]
  | Union_all ps -> ps

let rec to_lines indent plan =
  (String.make (indent * 2) ' ' ^ node_line plan)
  :: List.concat_map (to_lines (indent + 1)) (display_children plan)

let to_string plan = String.concat "\n" (to_lines 0 plan)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: one mutable node per executed operator, filled in by
   the executor on every run (Executor.run). Counters are inclusive: a
   node's wall-clock covers its open and every batch pulled from it,
   children included, so the root's time is the whole execution. Children
   appear in execution order (a hash join opens its build side first).
   The node keeps its plan operator rather than a rendered line, so a run
   nobody looks at never formats one. *)

type annotated = {
  an_node : t;  (* the executed operator *)
  mutable an_children : annotated list;
  mutable an_rows : int;  (* rows produced *)
  mutable an_batches : int;  (* non-empty batches produced *)
  mutable an_ns : int;  (* inclusive wall-clock (open + pulls), ns *)
  mutable an_est : int option;  (* planner's cardinality estimate, when costed *)
}

let annot node =
  { an_node = node; an_children = []; an_rows = 0; an_batches = 0; an_ns = 0; an_est = None }

let annotated_op a = node_line a.an_node

(* Misestimation factor: how far off the estimate was, as a >= 1 ratio. *)
let misestimation ~est ~actual =
  let est = float_of_int (max 1 est) and actual = float_of_int (max 1 actual) in
  Float.max est actual /. Float.min est actual

let rec annotated_lines indent a =
  let est_part =
    match a.an_est with
    | None -> ""
    | Some est ->
      Printf.sprintf "est=%d " est
  in
  let misest_part =
    match a.an_est with
    | None -> ""
    | Some est -> Printf.sprintf " misest=%.1fx" (misestimation ~est ~actual:a.an_rows)
  in
  Printf.sprintf "%s%s (%sactual rows=%d batches=%d time=%.3f ms%s)"
    (String.make (indent * 2) ' ')
    (annotated_op a) est_part a.an_rows a.an_batches
    (float_of_int a.an_ns /. 1e6)
    misest_part
  :: List.concat_map (annotated_lines (indent + 1)) a.an_children

let annotated_to_string a = String.concat "\n" (annotated_lines 0 a)

let rec fold_annotated f acc a = List.fold_left (fold_annotated f) (f acc a) a.an_children

(* Bridge an executed operator tree into the active trace as synthesized
   child spans of the innermost open span (the execute span), each named
   by its operator kind (the full EXPLAIN line stays in ANALYZE output and
   the slow log). The annotated tree records inclusive durations but not
   start offsets, so starts are synthesized: each node starts where its
   previous sibling ended, clamped to its parent's interval — well-nested
   by construction, with durations faithful to the measurement. *)
let record_spans a =
  match Obskit.Trace.current () with
  | None -> ()
  | Some parent ->
    let now = Obskit.Clock.now_ns () in
    let rec emit ~parent ~start_ns ~max_end (n : annotated) =
      let dur = max 0 (min n.an_ns (max_end - start_ns)) in
      let id =
        Obskit.Trace.emit ~parent ~start_ns ~dur_ns:dur
          ~attrs:
            [ ("rows", string_of_int n.an_rows); ("batches", string_of_int n.an_batches) ]
          (node_kind n.an_node)
      in
      let off = ref start_ns in
      List.iter
        (fun c ->
          let avail = max 0 (start_ns + dur - !off) in
          let cdur = min c.an_ns avail in
          emit ~parent:id ~start_ns:!off ~max_end:(start_ns + dur) c;
          off := !off + cdur)
        n.an_children
    in
    let root_start = max parent.Obskit.Trace.start_ns (now - a.an_ns) in
    emit ~parent:parent.Obskit.Trace.span_id ~start_ns:root_start ~max_end:now a

let annotated_operator_count a = fold_annotated (fun n _ -> n + 1) 0 a

(* Metrics used by the benchmark harness (query complexity per mapping). *)
let rec count_joins = function
  | Seq_scan _ | Index_scan _ | Index_probes _ -> 0
  | Filter (_, p) | Project (_, p) | Sort (_, p) | Distinct p | Limit (_, p) -> count_joins p
  | Aggregate { input; _ } -> count_joins input
  | Nl_join (l, r) -> 1 + count_joins l + count_joins r
  | Staircase_join { left; right; _ } -> 1 + count_joins left + count_joins right
  | Hash_join { build; probe; _ } -> 1 + count_joins build + count_joins probe
  | Union_all ps -> List.fold_left (fun acc p -> acc + count_joins p) 0 ps

let rec count_index_scans = function
  | Seq_scan _ -> 0
  | Index_scan _ | Index_probes _ -> 1
  | Filter (_, p) | Project (_, p) | Sort (_, p) | Distinct p | Limit (_, p) -> count_index_scans p
  | Aggregate { input; _ } -> count_index_scans input
  | Nl_join (l, r) -> count_index_scans l + count_index_scans r
  | Staircase_join { left; right; _ } -> count_index_scans left + count_index_scans right
  | Hash_join { build; probe; _ } -> count_index_scans build + count_index_scans probe
  | Union_all ps -> List.fold_left (fun acc p -> acc + count_index_scans p) 0 ps
