(* Plan interpreter: operators exchange batches of ~1024 rows, each
   operator a closure returning its next batch. Pipelining operators
   (scan, filter, project, limit, distinct, union, nested loop) stream
   batches; blocking operators (sort, hash-join build, aggregate,
   staircase join) materialize their input when opened. Every opened
   operator is wrapped in a counter feeding its EXPLAIN ANALYZE node, so
   an observed query runs exactly the code an unobserved one does. *)

exception Exec_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Batch protocol: ownership of a batch transfers to the consumer, so
   Filter and Distinct compact in place and Project overwrites slots. A
   batch handed out is never empty. *)

let batch_size = 1024

type batch = {
  b_rows : Value.t array array;  (* only [0, b_len) is valid *)
  mutable b_len : int;
}

type batched = unit -> batch option

let batches_of_array (arr : Value.t array array) : batched =
  (* Callers always pass a freshly materialized array (the scan helpers,
     sort, aggregate and staircase outputs), so it is served as one
     aliased batch: zero copies, and downstream operators are free to
     compact or overwrite it in place. *)
  let served = ref false in
  fun () ->
    if !served || Array.length arr = 0 then None
    else begin
      served := true;
      Some { b_rows = arr; b_len = Array.length arr }
    end

let drain_batched (b : batched) : Value.t array array =
  let chunks = ref [] and total = ref 0 in
  let rec pull () =
    match b () with
    | None -> ()
    | Some bt ->
      chunks := bt :: !chunks;
      total := !total + bt.b_len;
      pull ()
  in
  pull ();
  if !total = 0 then [||]
  else begin
    let out = Array.make !total [||] in
    let pos = ref !total in
    List.iter
      (fun bt ->
        pos := !pos - bt.b_len;
        Array.blit bt.b_rows 0 out !pos bt.b_len)
      !chunks;
    out
  end

(* ------------------------------------------------------------------ *)
(* Layout computation *)

let rec layout_of cat (plan : Plan.t) : Expr_eval.layout =
  match plan with
  | Plan.Seq_scan { table; alias }
  | Plan.Index_scan { table; alias; _ }
  | Plan.Index_probes { table; alias; _ } ->
    let t =
      match cat.Planner.find_table table with
      | Some t -> t
      | None -> err "no such table: %s" table
    in
    Expr_eval.layout_of_schema ~alias (Table.schema t)
  | Plan.Filter (_, p) | Plan.Sort (_, p) | Plan.Distinct p | Plan.Limit (_, p) ->
    layout_of cat p
  | Plan.Project (cols, _) ->
    Array.of_list
      (List.map (fun (_, name) -> { Expr_eval.slot_alias = ""; slot_name = name }) cols)
  | Plan.Nl_join (l, r) | Plan.Staircase_join { left = l; right = r; _ } ->
    Expr_eval.layout_concat (layout_of cat l) (layout_of cat r)
  | Plan.Hash_join { build; probe; _ } ->
    Expr_eval.layout_concat (layout_of cat probe) (layout_of cat build)
  | Plan.Aggregate { group_by; aggregates; _ } ->
    Array.of_list
      (List.mapi (fun i _ -> { Expr_eval.slot_alias = ""; slot_name = Printf.sprintf "#g%d" i }) group_by
      @ List.mapi
          (fun i _ -> { Expr_eval.slot_alias = ""; slot_name = Printf.sprintf "#a%d" i })
          aggregates)
  | Plan.Union_all [] -> err "empty UNION"
  | Plan.Union_all (p :: _) -> layout_of cat p

(* ------------------------------------------------------------------ *)
(* Aggregation accumulators *)

type agg_state = {
  mutable a_rows : int;  (* rows seen, for count star *)
  mutable a_count : int;  (* non-null args *)
  mutable a_int_sum : int;
  mutable a_float_sum : float;
  mutable a_saw_float : bool;
  mutable a_min : Value.t;
  mutable a_max : Value.t;
  a_seen : (Value.t, unit) Hashtbl.t option;  (* for DISTINCT *)
}

let new_agg_state (a : Plan.agg) =
  {
    a_rows = 0;
    a_count = 0;
    a_int_sum = 0;
    a_float_sum = 0.0;
    a_saw_float = false;
    a_min = Value.Null;
    a_max = Value.Null;
    a_seen = (if a.agg_distinct then Some (Hashtbl.create 16) else None);
  }

let agg_feed (a : Plan.agg) st (v : Value.t) =
  st.a_rows <- st.a_rows + 1;
  if a.Plan.agg_star then ()
  else if Value.is_null v then ()
  else begin
    let counted =
      match st.a_seen with
      | None -> true
      | Some seen ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end
    in
    if counted then begin
      st.a_count <- st.a_count + 1;
      (match v with
      | Value.Int i -> st.a_int_sum <- st.a_int_sum + i
      | Value.Float f ->
        st.a_saw_float <- true;
        st.a_float_sum <- st.a_float_sum +. f
      | Value.Bool _ | Value.Text _ | Value.Null -> ());
      if Value.is_null st.a_min || Value.compare v st.a_min < 0 then st.a_min <- v;
      if Value.is_null st.a_max || Value.compare v st.a_max > 0 then st.a_max <- v
    end
  end

let agg_result (a : Plan.agg) st =
  match a.Plan.agg_func with
  | "count" -> Value.Int (if a.Plan.agg_star then st.a_rows else st.a_count)
  | "sum" ->
    if st.a_count = 0 then Value.Null
    else if st.a_saw_float then Value.Float (st.a_float_sum +. float_of_int st.a_int_sum)
    else Value.Int st.a_int_sum
  | "avg" ->
    if st.a_count = 0 then Value.Null
    else Value.Float ((st.a_float_sum +. float_of_int st.a_int_sum) /. float_of_int st.a_count)
  | "min" -> st.a_min
  | "max" -> st.a_max
  | f -> err "unknown aggregate %s" f

(* ------------------------------------------------------------------ *)
(* Operator compilation *)

let const_value params e =
  (* Bounds in index scans are constant expressions (possibly parameters). *)
  let f = Expr_eval.compile ~params [||] e in
  f [||]

(* ------------------------------------------------------------------ *)
(* Scan row gathering: each scan materializes its rows at open time. *)

let find_table cat table =
  match cat.Planner.find_table table with
  | Some t -> t
  | None -> err "no such table: %s" table

let find_index t index_name table =
  match Table.find_index t index_name with
  | Some ix -> ix
  | None -> err "no such index: %s on %s" index_name table

let seq_scan_rows cat table : Value.t array array =
  let t = find_table cat table in
  (* Materialize at open time so the cursor is stable under concurrent
     mutation of the table; [row_count] sizes the snapshot exactly, so
     this is one allocation and one pass. *)
  let out = Array.make (Table.row_count t) [||] in
  let i = ref 0 in
  Table.iter
    (fun _ row ->
      out.(!i) <- row;
      incr i)
    t;
  out

let index_scan_rows params cat ~table ~index_name ~lower ~upper : Value.t array array =
  let t = find_table cat table in
  let ix = find_index t index_name table in
  let lower_v = Option.map (fun (e, incl) -> (const_value params e, incl)) lower in
  let upper_v = Option.map (fun (e, incl) -> (const_value params e, incl)) upper in
  let tree_lower =
    match lower_v with
    | Some (v, _) -> Btree.Inclusive [| v |]
    | None -> Btree.Unbounded
  in
  let rowids = ref [] in
  let exception Stop in
  (try
     Btree.iter_range ix.Table.tree ~lower:tree_lower ~upper:Btree.Unbounded (fun key rowid ->
         let first = key.(0) in
         (match upper_v with
         | Some (v, incl) ->
           let c = Value.compare first v in
           if (incl && c > 0) || ((not incl) && c >= 0) then raise Stop
         | None -> ());
         let passes_lower =
           match lower_v with
           | Some (v, incl) ->
             let c = Value.compare first v in
             if incl then c >= 0 else c > 0
           | None -> true
         in
         if passes_lower then rowids := rowid :: !rowids)
   with Stop -> ());
  Array.of_list (List.filter_map (fun rowid -> Table.get t rowid) (List.rev !rowids))

let index_probe_rows params cat ~table ~index_name ~keys : Value.t array array =
  let t = find_table cat table in
  let ix = find_index t index_name table in
  let rowids =
    List.concat_map
      (fun e ->
        (* prefix probe so composite indexes answer single-column keys *)
        let acc = ref [] in
        Btree.iter_prefix ix.Table.tree [| const_value params e |] (fun _ r -> acc := r :: !acc);
        List.rev !acc)
      keys
  in
  (* dedup in case probe keys repeat *)
  let rowids = List.sort_uniq compare rowids in
  Array.of_list (List.filter_map (fun rowid -> Table.get t rowid) rowids)

(* ------------------------------------------------------------------ *)
(* Staircase merge: the structural-join core.

   Both sides materialize. Descendant rows sort by key ascending; ancestor
   rows sort by lower bound ascending. One sweep over the descendants
   maintains the set of "active" ancestors — those whose lower bound the
   current key has passed — admitting ancestors as the key ascends and
   compacting out the ones whose upper bound has expired (monotone: an
   interval dead at key k stays dead for every larger key). Each surviving
   active ancestor pairs with the current descendant, so the cost is one
   sort of each side plus work proportional to the output. Rows whose key
   or bounds are NULL never match (SQL comparison semantics) and are
   dropped up front. *)

let staircase_merge ~desc_on_left ~key_of ~lo_of ~hi_of ~lower_strict ~upper_strict
    (descs : Value.t array array) (ancs : Value.t array array) : Value.t array list =
  let keyed f rows =
    Array.to_list rows
    |> List.filter_map (fun r ->
           let v = f r in
           if Value.is_null v then None else Some (v, r))
    |> Array.of_list
  in
  let ds = keyed key_of descs in
  let asr_ =
    Array.to_list ancs
    |> List.filter_map (fun r ->
           let lo = lo_of r and hi = hi_of r in
           if Value.is_null lo || Value.is_null hi then None else Some (lo, hi, r))
    |> Array.of_list
  in
  (* stable sorts keep input order deterministic within equal keys *)
  let ds = Array.copy ds in
  Array.stable_sort (fun (a, _) (b, _) -> Value.compare a b) ds;
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Value.compare a b) asr_;
  let started lo k = if lower_strict then Value.compare lo k < 0 else Value.compare lo k <= 0 in
  let expired hi k = if upper_strict then Value.compare hi k <= 0 else Value.compare hi k < 0 in
  let n_anc = Array.length asr_ in
  let active = Array.make (max 1 n_anc) (Value.Null, Value.Null, [||]) in
  let active_n = ref 0 in
  let ai = ref 0 in
  let out = ref [] in
  Array.iter
    (fun (k, drow) ->
      (* admit ancestors whose lower bound the key has now passed *)
      while
        !ai < n_anc
        &&
        let lo, _, _ = asr_.(!ai) in
        started lo k
      do
        active.(!active_n) <- asr_.(!ai);
        incr active_n;
        incr ai
      done;
      (* pair with live ancestors, compacting out expired ones *)
      let j = ref 0 in
      for i = 0 to !active_n - 1 do
        let (_, hi, arow) as entry = active.(i) in
        if not (expired hi k) then begin
          active.(!j) <- entry;
          incr j;
          let row =
            if desc_on_left then Array.append drow arow else Array.append arow drow
          in
          out := row :: !out
        end
      done;
      active_n := !j)
    ds;
  List.rev !out


(* ------------------------------------------------------------------ *)
(* The interpreter. [open_batched] opens one operator and wraps it in a
   counter: per batch it adds rows, one batch and the pull's wall-clock to
   the operator's node, and the open itself (where blocking operators
   materialize) is timed too. Children are opened through [recur], which
   appends their nodes to the parent's in execution order; Union_all opens
   its inputs lazily, so late inputs still land in the tree. *)

let rec open_batched params cat (plan : Plan.t) : batched * Plan.annotated =
  let a = Plan.annot plan in
  let t0 = Metrics.now_ns () in
  let b = open_operator params cat a plan in
  a.Plan.an_ns <- Metrics.now_ns () - t0;
  let counted () =
    let t0 = Metrics.now_ns () in
    let r = b () in
    a.Plan.an_ns <- a.Plan.an_ns + (Metrics.now_ns () - t0);
    (match r with
    | Some bt ->
      a.Plan.an_rows <- a.Plan.an_rows + bt.b_len;
      a.Plan.an_batches <- a.Plan.an_batches + 1
    | None -> ());
    r
  in
  (counted, a)

and open_operator params cat (a : Plan.annotated) (plan : Plan.t) : batched =
  let recur child =
    let b, ca = open_batched params cat child in
    a.Plan.an_children <- a.Plan.an_children @ [ ca ];
    b
  in
  match plan with
  | Plan.Seq_scan { table; _ } -> batches_of_array (seq_scan_rows cat table)
  | Plan.Index_scan { table; index_name; lower; upper; _ } ->
    batches_of_array (index_scan_rows params cat ~table ~index_name ~lower ~upper)
  | Plan.Index_probes { table; index_name; keys; _ } ->
    batches_of_array (index_probe_rows params cat ~table ~index_name ~keys)
  | Plan.Filter (e, input) ->
    let layout = layout_of cat input in
    let pred = Expr_eval.compile_predicate ~params layout e in
    let child = recur input in
    let rec next () =
      match child () with
      | None -> None
      | Some b ->
        (* in-place compaction: the batch is ours *)
        let j = ref 0 in
        for i = 0 to b.b_len - 1 do
          let r = b.b_rows.(i) in
          if pred r then begin
            b.b_rows.(!j) <- r;
            incr j
          end
        done;
        b.b_len <- !j;
        if !j = 0 then next () else Some b
    in
    next
  | Plan.Project (cols, input) ->
    let layout = layout_of cat input in
    let fs = Array.of_list (List.map (fun (e, _) -> Expr_eval.compile ~params layout e) cols) in
    let child = recur input in
    fun () ->
      Option.map
        (fun b ->
          for i = 0 to b.b_len - 1 do
            let r = b.b_rows.(i) in
            b.b_rows.(i) <- Array.map (fun f -> f r) fs
          done;
          b)
        (child ())
  | Plan.Nl_join (l, r) ->
    let left = recur l in
    (* Materialize the inner side once, then emit left-major: every inner
       row for the first outer row, then the next, in chunks of at most
       [batch_size] so a wide cross product never builds one huge batch. *)
    let right = drain_batched (recur r) in
    let nr = Array.length right in
    let cur = ref { b_rows = [||]; b_len = 0 } and li = ref 0 and ri = ref 0 in
    let rec next () =
      if nr = 0 then None
      else if !li < !cur.b_len then begin
        let lb = !cur in
        let n = min batch_size (((lb.b_len - !li) * nr) - !ri) in
        let out = Array.make n [||] in
        for k = 0 to n - 1 do
          out.(k) <- Array.append lb.b_rows.(!li) right.(!ri);
          incr ri;
          if !ri = nr then begin
            ri := 0;
            incr li
          end
        done;
        Some { b_rows = out; b_len = n }
      end
      else
        match left () with
        | None -> None
        | Some lb ->
          cur := lb;
          li := 0;
          ri := 0;
          next ()
    in
    next
  | Plan.Hash_join { build; probe; build_keys; probe_keys } ->
    let build_layout = layout_of cat build in
    let probe_layout = layout_of cat probe in
    let bks = List.map (Expr_eval.compile ~params build_layout) build_keys in
    let pks = List.map (Expr_eval.compile ~params probe_layout) probe_keys in
    let table = Hashtbl.create 256 in
    let build_rows = drain_batched (recur build) in
    Array.iter
      (fun row ->
        let key = List.map (fun f -> f row) bks in
        if not (List.exists Value.is_null key) then Hashtbl.add table key row)
      build_rows;
    let probe_cursor = recur probe in
    let rec next () =
      match probe_cursor () with
      | None -> None
      | Some b ->
        let out = ref [] and n = ref 0 in
        for i = 0 to b.b_len - 1 do
          let pr = b.b_rows.(i) in
          let key = List.map (fun f -> f pr) pks in
          if not (List.exists Value.is_null key) then
            (* find_all returns most-recent first; order within a key does
               not matter for join semantics *)
            List.iter
              (fun br ->
                out := Array.append pr br :: !out;
                incr n)
              (Hashtbl.find_all table key)
        done;
        if !n = 0 then next ()
        else begin
          (* one output batch per probe batch; size tracks the join fanout *)
          let rows = Array.make !n [||] in
          let pos = ref !n in
          List.iter
            (fun r ->
              decr pos;
              rows.(!pos) <- r)
            !out;
          Some { b_rows = rows; b_len = !n }
        end
    in
    next
  | Plan.Staircase_join
      { left; right; desc_on_left; desc_key; anc_lower; anc_upper; lower_strict; upper_strict }
    ->
    let left_layout = layout_of cat left and right_layout = layout_of cat right in
    let dlay, alay =
      if desc_on_left then (left_layout, right_layout) else (right_layout, left_layout)
    in
    let key_of = Expr_eval.compile ~params dlay desc_key in
    let lo_of = Expr_eval.compile ~params alay anc_lower in
    let hi_of = Expr_eval.compile ~params alay anc_upper in
    let lrows = drain_batched (recur left) in
    let rrows = drain_batched (recur right) in
    let descs, ancs = if desc_on_left then (lrows, rrows) else (rrows, lrows) in
    batches_of_array
      (Array.of_list
         (staircase_merge ~desc_on_left ~key_of ~lo_of ~hi_of ~lower_strict ~upper_strict descs
            ancs))
  | Plan.Aggregate { group_by = []; aggregates; input } ->
    (* Ungrouped aggregation is the showcase batched kernel: one state
       per aggregate, no per-row key building or hash lookups, and a
       count over an argument-less aggregate advances by the whole batch
       length in one store. An empty input still yields one row. *)
    let layout = layout_of cat input in
    let afs =
      List.map
        (fun (a : Plan.agg) ->
          match a.Plan.agg_arg with
          | Some e -> (a, Some (Expr_eval.compile ~params layout e))
          | None -> (a, None))
        aggregates
    in
    let states = List.map (fun (a, _) -> new_agg_state a) afs in
    let child = recur input in
    let rec consume () =
      match child () with
      | None -> ()
      | Some b ->
        List.iter2
          (fun (a, f) st ->
            match f with
            | None ->
              (* count star: only [a_rows] moves, so the batch feeds at once *)
              st.a_rows <- st.a_rows + b.b_len
            | Some f ->
              for i = 0 to b.b_len - 1 do
                agg_feed a st (f b.b_rows.(i))
              done)
          afs states;
        consume ()
    in
    consume ();
    batches_of_array
      [| Array.of_list (List.map2 (fun (a, _) st -> agg_result a st) afs states) |]
  | Plan.Aggregate { group_by; aggregates; input } ->
    let layout = layout_of cat input in
    let gfs = List.map (Expr_eval.compile ~params layout) group_by in
    let afs =
      List.map
        (fun (a : Plan.agg) ->
          match a.Plan.agg_arg with
          | Some e -> (a, Some (Expr_eval.compile ~params layout e))
          | None -> (a, None))
        aggregates
    in
    let groups : (Value.t list, agg_state list) Hashtbl.t = Hashtbl.create 64 in
    let group_order = ref [] in
    let child = recur input in
    let rec consume () =
      match child () with
      | None -> ()
      | Some b ->
        for i = 0 to b.b_len - 1 do
          let row = b.b_rows.(i) in
          let key = List.map (fun f -> f row) gfs in
          let states =
            match Hashtbl.find_opt groups key with
            | Some s -> s
            | None ->
              let s = List.map (fun (a, _) -> new_agg_state a) afs in
              Hashtbl.add groups key s;
              group_order := key :: !group_order;
              s
          in
          List.iter2
            (fun (a, f) st ->
              let v = match f with Some f -> f row | None -> Value.Null in
              agg_feed a st v)
            afs states
        done;
        consume ()
    in
    consume ();
    let emit key =
      let states = Hashtbl.find groups key in
      Array.of_list (key @ List.map2 (fun (a, _) st -> agg_result a st) afs states)
    in
    batches_of_array (Array.of_list (List.map emit (List.rev !group_order)))
  | Plan.Sort (items, input) ->
    let layout = layout_of cat input in
    let keys =
      Array.of_list
        (List.map
           (fun { Sql_ast.order_expr; descending } ->
             (Expr_eval.compile ~params layout order_expr, descending))
           items)
    in
    let rows = drain_batched (recur input) in
    if Array.length rows <= 1 then batches_of_array rows
    else begin
      (* Each row's sort keys are evaluated once; Array.stable_sort is a
         merge sort, so rows with equal keys keep their input order. *)
      let keyed = Array.map (fun r -> (Array.map (fun (f, _) -> f r) keys, r)) rows in
      let cmp (ka, _) (kb, _) =
        let rec go i =
          if i = Array.length keys then 0
          else
            let c = Value.compare ka.(i) kb.(i) in
            if c <> 0 then if snd keys.(i) then -c else c else go (i + 1)
        in
        go 0
      in
      Array.stable_sort cmp keyed;
      batches_of_array (Array.map snd keyed)
    end
  | Plan.Distinct input ->
    (* first occurrence wins: each batch is compacted in place to the rows
       not seen before *)
    let child = recur input in
    let seen = Hashtbl.create 256 in
    let rec next () =
      match child () with
      | None -> None
      | Some b ->
        let j = ref 0 in
        for i = 0 to b.b_len - 1 do
          let r = b.b_rows.(i) in
          if not (Hashtbl.mem seen r) then begin
            Hashtbl.add seen r ();
            b.b_rows.(!j) <- r;
            incr j
          end
        done;
        b.b_len <- !j;
        if !j = 0 then next () else Some b
    in
    next
  | Plan.Limit (n, input) ->
    let child = recur input in
    let remaining = ref n in
    let rec next () =
      if !remaining <= 0 then None
      else
        match child () with
        | None -> None
        | Some b ->
          let take = min b.b_len !remaining in
          remaining := !remaining - take;
          b.b_len <- take;
          if take = 0 then next () else Some b
    in
    next
  | Plan.Union_all plans ->
    (* inputs in order, each opened only once the previous one is done *)
    let pending = ref plans in
    let current : batched ref = ref (fun () -> None) in
    let rec next () =
      match !current () with
      | Some b -> Some b
      | None -> (
        match !pending with
        | [] -> None
        | p :: rest ->
          pending := rest;
          current := recur p;
          next ())
    in
    next

type result = { columns : string list; rows : Value.t array list }

let columns_of cat plan =
  Array.to_list (Array.map (fun s -> s.Expr_eval.slot_name) (layout_of cat plan))

let run ?(params = [||]) cat plan =
  let columns = columns_of cat plan in
  let acc = ref [] in
  let rec drain (b : batched) f =
    match b () with
    | None -> ()
    | Some bt ->
      f bt;
      drain b f
  in
  let root =
    match plan with
    | Plan.Project (cols, input) ->
      (* A root Project is fused into the drain: projected rows are consed
         straight onto the (young) result list instead of being written
         back into the old batch array, which would hit the write
         barrier's remembered-set path on every row. Its node is counted
         here rather than by a wrapper. *)
      let t0 = Metrics.now_ns () in
      let root = Plan.annot plan in
      let layout = layout_of cat input in
      let fs = Array.of_list (List.map (fun (e, _) -> Expr_eval.compile ~params layout e) cols) in
      let b, child = open_batched params cat input in
      root.Plan.an_children <- [ child ];
      drain b (fun bt ->
          root.Plan.an_rows <- root.Plan.an_rows + bt.b_len;
          root.Plan.an_batches <- root.Plan.an_batches + 1;
          for i = 0 to bt.b_len - 1 do
            let r = bt.b_rows.(i) in
            acc := Array.map (fun f -> f r) fs :: !acc
          done);
      root.Plan.an_ns <- Metrics.now_ns () - t0;
      root
    | _ ->
      let b, root = open_batched params cat plan in
      drain b (fun bt ->
          for i = 0 to bt.b_len - 1 do
            acc := bt.b_rows.(i) :: !acc
          done);
      root
  in
  ({ columns; rows = List.rev !acc }, root)
