(* Top-level database: catalog of tables plus SQL entry points.

   SELECT plans are cached by statement text (see Plan_cache): repeated
   queries — parameterized or not — skip lexing, parsing, and planning.
   The cache is cleared on any DDL and entries are revalidated against
   table row counts, so stale plans never execute. *)

(* What recovery did when a durable directory was opened. *)
type recovery = {
  rc_scanned : int;  (* WAL records in the valid prefix *)
  rc_redone : int;  (* mutation/DDL records replayed past the checkpoint *)
  rc_undone : int;  (* rows truncated undoing loser transactions *)
  rc_losers : int;  (* transactions begun but never committed or aborted *)
  rc_torn_bytes : int;  (* torn WAL tail cut back on open *)
}

type t = {
  tables : (string, Table.t) Hashtbl.t;
  col_stats : Stats.t;
  plan_cache : Plan_cache.t;
  mutable ddl_gen : int;
      (* bumped on every CREATE/DROP TABLE; lets bulk-load sessions cache
         name-to-table resolutions until the catalog actually changes *)
  mutable durable : Durable.t option;
  mutable cur_tx : int;  (* the open durable bulk-load session, 0 = none *)
  mutable next_tx : int;
  mutable recovering : bool;  (* replaying the WAL: nothing is re-logged *)
  mutable last_recovery : recovery option;
}

exception Db_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Db_error s)) fmt

let create () =
  let t =
    {
      tables = Hashtbl.create 16;
      col_stats = Stats.create ();
      plan_cache = Plan_cache.create ();
      ddl_gen = 0;
      durable = None;
      cur_tx = 0;
      next_tx = 1;
      recovering = false;
      last_recovery = None;
    }
  in
  (* A material statistics change means cached plans were costed against
     numbers that no longer hold — invalidate, like DDL does. *)
  Stats.on_change t.col_stats (fun _table -> Plan_cache.clear t.plan_cache);
  t

let is_durable t = t.durable <> None
let durable_dir t = Option.map Durable.dir t.durable
let last_recovery t = t.last_recovery

(* ------------------------------------------------------------------ *)
(* WAL appenders. Everything is a no-op on in-memory databases and while
   recovery itself is replaying the log (nothing may be re-logged).

   Transaction attribution: a mutation belongs to the open durable
   session iff its table is bulk-active — exactly the rows a live
   [abort_session] would drain — and to transaction 0 (autocommit)
   otherwise. DDL is always transaction 0: the live engine keeps DDL
   across a session abort, so recovery must too. *)

let log_wal t record =
  match t.durable with
  | Some d when not t.recovering -> ignore (Wal.append (Durable.wal d) record)
  | _ -> ()

let log_mutation t tbl (m : Table.mutation) =
  match t.durable with
  | Some d when not t.recovering ->
    let table = Table.name tbl in
    let record =
      match m with
      | Table.M_insert (rowid, row) ->
        let tx = if Table.bulk_active tbl && t.cur_tx <> 0 then t.cur_tx else 0 in
        Wal.Insert { tx; table; rowid; row }
      | Table.M_delete rowid -> Wal.Delete { table; rowid }
      | Table.M_update (rowid, row) -> Wal.Update { table; rowid; row }
    in
    ignore (Wal.append (Durable.wal d) record)
  | _ -> ()

let attach_logger t tbl = Table.set_logger tbl (Some (log_mutation t tbl))

(* Autocommitted statements reach the OS as soon as they complete; only a
   session commit pays for the fsync. *)
let wal_flush t =
  match t.durable with
  | Some d when not t.recovering -> Wal.flush (Durable.wal d)
  | _ -> ()

let wal_sync t =
  match t.durable with Some d -> Wal.sync (Durable.wal d) | None -> ()

let key name = String.lowercase_ascii name

let find_table t name = Hashtbl.find_opt t.tables (key name)

let get_table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> err "no such table: %s" name

let table_names t =
  Hashtbl.fold (fun _ tbl acc -> Table.name tbl :: acc) t.tables []
  |> List.sort String.compare

let create_table t schema =
  let k = key schema.Schema.table_name in
  if Hashtbl.mem t.tables k then err "table %s already exists" schema.Schema.table_name;
  let tbl = Table.create schema in
  Hashtbl.add t.tables k tbl;
  t.ddl_gen <- t.ddl_gen + 1;
  if t.durable <> None then begin
    log_wal t (Wal.Create_table schema);
    attach_logger t tbl
  end;
  tbl

let drop_table t name =
  let k = key name in
  let existed = Hashtbl.mem t.tables k in
  Hashtbl.remove t.tables k;
  if existed then begin
    t.ddl_gen <- t.ddl_gen + 1;
    log_wal t (Wal.Drop_table k)
  end;
  existed

let catalog t : Planner.catalog =
  { Planner.find_table = find_table t; stats = t.col_stats }

(* Per-column statistics, refreshed on demand (see Stats). *)
let analyze t name = Stats.get t.col_stats (get_table t name)

let analyze_to_string t name =
  let tbl = get_table t name in
  Printf.sprintf "%s: %d rows\n%s" name (Table.row_count tbl)
    (Stats.to_string (analyze t name) (Table.schema tbl))

(* Direct (non-SQL) fast path used by the shredders: no per-row list
   allocation — callers build the row array in place. *)
let insert_row_array t name values = ignore (Table.insert (get_table t name) values)

(* ------------------------------------------------------------------ *)
(* Bulk-load sessions: batched appends with deferred index maintenance.

   [insert_rows] / [session_insert] append straight into the table arena;
   no B+-tree is touched until [finish_session], which builds each index
   bottom-up from one sort of the appended (key, rowid) pairs
   (Btree.bulk_of_sorted, merged when the tree already had entries).
   Mid-session reads see appended rows through sequential scans but not
   through index probes — the shredders only query unindexed registry
   tables while loading. DDL composes with the session: CREATE/DROP
   during it clears the plan cache as always, and CREATE INDEX on a
   bulk-active table builds over the already-indexed range only
   (Table.end_bulk folds the rest in). After the session, the ordinary
   row-count drift rules govern plan-cache and stats invalidation.
   [abort_session] drains every touched table back to its pre-session
   length — the appended ranges were never indexed, so the tables are
   restored exactly. *)

type session = {
  s_db : t;
  mutable s_tables : (string * Table.t) list;  (* most recently touched first *)
  mutable s_memo : (string * Table.t) list;
      (* keyed on the physical name argument: shredders emit the same
         string literal for every row of a table, so a few pointer
         compares replace the per-row lowercase + catalog lookup even
         when emits alternate between tables (the binary scheme). Flushed
         whenever [ddl_gen] moves, so a drop/recreate mid-session can
         never serve a detached table. *)
  mutable s_gen : int;
  mutable s_open : bool;
  s_tx : int;  (* WAL transaction id; 0 on in-memory databases *)
}

let load_session t =
  let s_tx =
    if t.durable = None || t.recovering then 0
    else begin
      if t.cur_tx <> 0 then err "a durable bulk-load session is already open";
      let tx = t.next_tx in
      t.next_tx <- t.next_tx + 1;
      t.cur_tx <- tx;
      log_wal t (Wal.Begin tx);
      tx
    end
  in
  { s_db = t; s_tables = []; s_memo = []; s_gen = t.ddl_gen; s_open = true; s_tx }
let session_db s = s.s_db

let session_table_slow s name =
  let k = key name in
  let fresh () =
    let tbl = get_table s.s_db name in
    Table.begin_bulk tbl;
    s.s_tables <- (k, tbl) :: s.s_tables;
    tbl
  in
  match List.assoc_opt k s.s_tables with
  | None -> fresh ()
  | Some tbl -> (
    (* the table may have been dropped and recreated mid-session (the
       universal scheme rebuilds univ to widen it); never write into a
       detached table *)
    match find_table s.s_db name with
    | Some current when current == tbl -> tbl
    | _ ->
      s.s_tables <- List.filter (fun (_, t') -> t' != tbl) s.s_tables;
      fresh ())

let session_table s name =
  if not s.s_open then err "bulk-load session is already closed";
  if s.s_gen <> s.s_db.ddl_gen then begin
    (* any DDL since the last resolution: drop the memo and let the slow
       path revalidate each name against the live catalog *)
    s.s_memo <- [];
    s.s_gen <- s.s_db.ddl_gen
  end;
  let rec scan = function
    | (n, tbl) :: rest -> if n == name then tbl else scan rest
    | [] ->
      let tbl = session_table_slow s name in
      s.s_memo <- (name, tbl) :: s.s_memo;
      tbl
  in
  scan s.s_memo

let session_insert s name row = ignore (Table.insert (session_table s name) row)
let insert_rows s name rows = List.iter (fun row -> session_insert s name row) rows

let finish_session s =
  if not s.s_open then 0
  else begin
    s.s_open <- false;
    let total = ref 0 in
    List.iter
      (fun (name, tbl) ->
        let attached =
          match find_table s.s_db name with Some cur -> cur == tbl | None -> false
        in
        if attached then begin
          let added =
            Obskit.Trace.with_span ~attrs:[ ("table", name) ] "index.build" (fun () ->
                let n = Metrics.timed "db.bulk.index_build" (fun () -> Table.end_bulk tbl) in
                Obskit.Trace.add_attr "rows" (string_of_int n);
                n)
          in
          (* fold the appended range into the column statistics in one
             pass, instead of invalidating and re-scanning the whole
             table on the next planner question *)
          Stats.fold_range s.s_db.col_stats tbl
            ~base:(Table.allocated_rows tbl - added)
            ~added;
          total := !total + added
        end
        else
          (* dropped mid-session: drain quietly so any lingering reference
             sees a consistent (empty-range) table *)
          ignore (Table.abort_bulk tbl))
      (List.rev s.s_tables);
    Metrics.incr ~by:!total "db.bulk.rows";
    if s.s_tx <> 0 then begin
      let t = s.s_db in
      t.cur_tx <- 0;
      log_wal t (Wal.Commit s.s_tx);
      Failpoint.hit "wal.commit";
      wal_sync t;
      Metrics.incr "db.wal.commit"
    end;
    !total
  end

let abort_session s =
  if s.s_open then begin
    s.s_open <- false;
    let total = ref 0 in
    List.iter (fun (_, tbl) -> total := !total + Table.abort_bulk tbl) s.s_tables;
    Metrics.incr ~by:!total "db.bulk.aborted_rows";
    if s.s_tx <> 0 then begin
      let t = s.s_db in
      t.cur_tx <- 0;
      log_wal t (Wal.Abort s.s_tx);
      wal_flush t
    end
  end

let with_session t f =
  let s = load_session t in
  match f s with
  | v ->
    ignore (finish_session s);
    v
  | exception e ->
    abort_session s;
    raise e

(* ------------------------------------------------------------------ *)
(* SQL execution *)

type exec_result =
  | Rows of Executor.result
  | Affected of int
  | Done of string

let const_value params e =
  let f = Expr_eval.compile ~params [||] e in
  f [||]

(* ------------------------------------------------------------------ *)
(* Plan cache plumbing *)

let row_count_of t name = Option.map Table.row_count (find_table t name)

let cached_plan t text =
  let r = Plan_cache.find t.plan_cache ~row_count:(row_count_of t) text in
  Metrics.incr (match r with Some _ -> "db.cache.hit" | None -> "db.cache.miss");
  r

let referenced_from_tables (q : Sql_ast.query) =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (s : Sql_ast.select) ->
         List.map (fun (tr : Sql_ast.table_ref) -> tr.Sql_ast.table) s.Sql_ast.from)
       q)

(* Plan [q] and remember the plan under [text], fingerprinted with the row
   counts the planner saw. *)
let plan_and_cache t ~text (q : Sql_ast.query) =
  let plan =
    Obskit.Trace.with_span "sql.plan" @@ fun () ->
    Metrics.timed "db.plan" (fun () -> Planner.plan_query (catalog t) q)
  in
  let tables =
    List.filter_map
      (fun name -> Option.map (fun c -> (name, c)) (row_count_of t name))
      (referenced_from_tables q)
  in
  Plan_cache.add t.plan_cache text ~tables plan;
  plan

let plan_for t ~text (q : Sql_ast.query) =
  match cached_plan t text with Some plan -> plan | None -> plan_and_cache t ~text q

let cache_stats t = Plan_cache.stats t.plan_cache
let reset_cache_stats t = Plan_cache.reset_stats t.plan_cache
let set_plan_cache t on = Plan_cache.set_enabled t.plan_cache on

(* Every executor invocation flows through here. The executor always
   returns its operator tree; inside a recorded trace it is bridged into
   the trace as child spans of a sql.execute span. *)
let execute ?(params = [||]) t plan =
  Metrics.timed "db.execute" @@ fun () ->
  let run () =
    let r, annot = Executor.run ~params (catalog t) plan in
    Plan.record_spans annot;
    (r, annot)
  in
  if Obskit.Trace.recording () then Obskit.Trace.with_span "sql.execute" run else run ()

let traced_run ?params t plan = fst (execute ?params t plan)

(* ------------------------------------------------------------------ *)

let exec_statement ?(params = [||]) ?cache_text t (stmt : Sql_ast.statement) =
  match stmt with
  | Sql_ast.Select_stmt q ->
    let text = match cache_text with Some s -> s | None -> Sql_ast.query_to_string q in
    let plan = plan_and_cache t ~text q in
    Rows (traced_run ~params t plan)
  | Sql_ast.Insert { table; columns; rows } ->
    let tbl = get_table t table in
    let schema = Table.schema tbl in
    let arity = Schema.arity schema in
    let positions =
      match columns with
      | None -> Array.init arity (fun i -> i)
      | Some cols -> Array.of_list (List.map (Schema.column_index schema) cols)
    in
    List.iter
      (fun row_exprs ->
        if List.length row_exprs <> Array.length positions then
          err "INSERT into %s: %d columns but %d values" table (Array.length positions)
            (List.length row_exprs);
        let row = Array.make arity Value.Null in
        List.iteri (fun i e -> row.(positions.(i)) <- const_value params e) row_exprs;
        ignore (Table.insert tbl row))
      rows;
    Affected (List.length rows)
  | Sql_ast.Update { table; sets; where } ->
    let tbl = get_table t table in
    let schema = Table.schema tbl in
    let layout = Expr_eval.layout_of_schema ~alias:(Table.name tbl) schema in
    let pred =
      match where with
      | None -> fun _ -> true
      | Some w -> Expr_eval.compile_predicate ~params layout w
    in
    let setters =
      List.map
        (fun (c, e) -> (Schema.column_index schema c, Expr_eval.compile ~params layout e))
        sets
    in
    let victims = Table.fold (fun acc rowid row -> if pred row then (rowid, row) :: acc else acc) [] tbl in
    List.iter
      (fun (rowid, row) ->
        let row' = Array.copy row in
        List.iter (fun (ci, f) -> row'.(ci) <- f row) setters;
        ignore (Table.update tbl rowid row'))
      victims;
    Affected (List.length victims)
  | Sql_ast.Delete { table; where } ->
    let tbl = get_table t table in
    let layout = Expr_eval.layout_of_schema ~alias:(Table.name tbl) (Table.schema tbl) in
    let pred =
      match where with
      | None -> fun _ -> true
      | Some w -> Expr_eval.compile_predicate ~params layout w
    in
    let victims = Table.fold (fun acc rowid row -> if pred row then rowid :: acc else acc) [] tbl in
    List.iter (fun rowid -> ignore (Table.delete tbl rowid)) victims;
    Affected (List.length victims)
  | Sql_ast.Create_table { table; defs; if_not_exists } ->
    if if_not_exists && Option.is_some (find_table t table) then Done "table exists"
    else begin
      let columns =
        List.map
          (fun d -> Schema.column d.Sql_ast.def_name ~nullable:(not d.Sql_ast.def_not_null) d.Sql_ast.def_ty)
          defs
      in
      ignore (create_table t (Schema.make table columns));
      Plan_cache.clear t.plan_cache;
      Done (Printf.sprintf "created table %s" table)
    end
  | Sql_ast.Create_index { index; table; columns; if_not_exists } ->
    let tbl = get_table t table in
    if if_not_exists && Option.is_some (Table.find_index tbl index) then Done "index exists"
    else begin
      ignore (Table.create_index tbl ~index_name:index ~columns);
      log_wal t (Wal.Create_index { table = Table.name tbl; index; columns });
      Plan_cache.clear t.plan_cache;
      Done (Printf.sprintf "created index %s" index)
    end
  | Sql_ast.Drop_table { table; if_exists } ->
    if drop_table t table then begin
      Plan_cache.clear t.plan_cache;
      Done (Printf.sprintf "dropped table %s" table)
    end
    else if if_exists then Done "no such table"
    else err "no such table: %s" table
  | Sql_ast.Drop_index { index; table } ->
    let tbl = get_table t table in
    if Table.drop_index tbl index then begin
      log_wal t (Wal.Drop_index { table = Table.name tbl; index });
      Plan_cache.clear t.plan_cache;
      Done (Printf.sprintf "dropped index %s" index)
    end
    else err "no such index: %s on %s" index table

(* Autocommit durability: any statement that changed something leaves its
   WAL records with the OS before control returns (fsync waits for an
   explicit checkpoint or a session commit). *)
let exec_statement ?params ?cache_text t stmt =
  let r = exec_statement ?params ?cache_text t stmt in
  (match r with Rows _ -> () | Affected _ | Done _ -> wal_flush t);
  r

(* Text entry point: a plan-cache hit on the raw statement text skips the
   lexer, parser, and planner entirely. *)
let parse_timed sql =
  Obskit.Trace.with_span "sql.parse" @@ fun () ->
  Metrics.timed "db.parse" (fun () -> Sql_parser.parse_statement sql)

let exec ?(params = [||]) t sql =
  match cached_plan t sql with
  | Some plan -> Rows (traced_run ~params t plan)
  | None -> exec_statement ~params ~cache_text:sql t (parse_timed sql)

let exec_script t sql = List.map (exec_statement t) (Sql_parser.parse_script sql)

(* SELECT or fail; convenience for callers that expect rows back. *)
let query ?params t sql =
  match exec ?params t sql with
  | Rows r -> r
  | Affected _ | Done _ -> err "not a SELECT statement: %s" sql

(* ------------------------------------------------------------------ *)
(* Prepared statements. A prepared handle pins the parsed query, not the
   plan: each execution fetches the plan from the cache (replanning only
   when DDL or stats drift invalidated it), so handles never go stale. *)

type prepared = { p_text : string; p_query : Sql_ast.query }

(* Planning is deferred to the first execution (or [prepared_plan]), so
   constructing a handle touches the cache at most once per run. *)
let prepare_query t (q : Sql_ast.query) =
  ignore t;
  { p_text = Sql_ast.query_to_string q; p_query = q }

let prepare t sql =
  match parse_timed sql with
  | Sql_ast.Select_stmt q ->
    let p = { p_text = sql; p_query = q } in
    ignore (plan_for t ~text:sql q);
    p
  | _ -> err "prepare supports only SELECT statements"

let prepared_text p = p.p_text
let prepared_plan t p = plan_for t ~text:p.p_text p.p_query

let query_prepared ?(params = [||]) t p =
  let plan = prepared_plan t p in
  traced_run ~params t plan

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: same planning pipeline (including the plan cache) and
   the same execution; the operator tree every run fills is returned,
   with the planner's estimates added. *)

let execute_analyzed ?params t plan =
  let r, annot = execute ?params t plan in
  Planner.annotate_estimates (catalog t) annot;
  (r, annot)

let query_prepared_analyzed ?params t p = execute_analyzed ?params t (prepared_plan t p)

let query_analyzed ?params t sql =
  match cached_plan t sql with
  | Some plan -> execute_analyzed ?params t plan
  | None -> (
    match parse_timed sql with
    | Sql_ast.Select_stmt q -> execute_analyzed ?params t (plan_and_cache t ~text:sql q)
    | _ -> err "not a SELECT statement: %s" sql)

let plan_of t sql =
  match Sql_parser.parse_statement sql with
  | Sql_ast.Select_stmt q -> Planner.plan_query (catalog t) q
  | _ -> err "EXPLAIN supports only SELECT statements"

let explain t sql = Plan.to_string (plan_of t sql)

let explain_analyze ?params t sql =
  let r, annot = query_analyzed ?params t sql in
  ignore r;
  Plan.annotated_to_string annot

(* ------------------------------------------------------------------ *)
(* Storage statistics (benchmark experiment T1) *)

type table_stats = {
  st_table : string;
  st_rows : int;
  st_bytes : int;
  st_indexes : int;
  st_index_entries : int;
}

let stats t =
  List.map
    (fun name ->
      let tbl = get_table t name in
      let ixs = Table.indexes tbl in
      {
        st_table = name;
        st_rows = Table.row_count tbl;
        st_bytes = Table.byte_size tbl;
        st_indexes = List.length ixs;
        st_index_entries =
          List.fold_left (fun acc ix -> acc + Btree.entry_count ix.Table.tree) 0 ixs;
      })
    (table_names t)

let total_rows t = List.fold_left (fun acc s -> acc + s.st_rows) 0 (stats t)
let total_bytes t = List.fold_left (fun acc s -> acc + s.st_bytes) 0 (stats t)

(* ------------------------------------------------------------------ *)
(* Persistence: a SQL-script dump that [restore] replays. Tables are
   emitted in name order; inserts preserve live-row order; indexes are
   rebuilt after the data so restore cost matches a bulk load. *)

let dump t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let tbl = get_table t name in
      let schema = Table.schema tbl in
      Buffer.add_string buf
        (Printf.sprintf "CREATE TABLE %s (%s);\n" (Table.name tbl)
           (String.concat ", "
              (Array.to_list
                 (Array.map
                    (fun c ->
                      Printf.sprintf "%s %s%s" c.Schema.col_name
                        (Value.ty_to_string c.Schema.col_ty)
                        (if c.Schema.nullable then "" else " NOT NULL"))
                    schema.Schema.columns))));
      Table.iter
        (fun _ row ->
          Buffer.add_string buf
            (Printf.sprintf "INSERT INTO %s VALUES (%s);\n" (Table.name tbl)
               (String.concat ", " (Array.to_list (Array.map Value.to_sql_literal row)))))
        tbl;
      List.iter
        (fun ix ->
          let cols =
            Array.to_list
              (Array.map (fun ci -> schema.Schema.columns.(ci).Schema.col_name) ix.Table.key_columns)
          in
          Buffer.add_string buf
            (Printf.sprintf "CREATE INDEX %s ON %s (%s);\n" ix.Table.index_name (Table.name tbl)
               (String.concat ", " cols)))
        (Table.indexes tbl))
    (table_names t);
  Buffer.contents buf

(* Replaying a dump is a bulk load, not a row-at-a-time INSERT storm: the
   plain VALUES inserts stream through a load session (deferred index
   maintenance, bottom-up rebuilds at the end), and every table is
   analyzed once the data is in — so a restored database both loads at
   bulk speed and plans from the same full-scan statistics the original
   had, instead of planning blind until the first drift re-scan. *)
let restore script =
  let db = create () in
  let stmts = Sql_parser.parse_script script in
  let s = load_session db in
  (try
     List.iter
       (fun stmt ->
         match stmt with
         | Sql_ast.Insert { table; columns = None; rows } ->
           List.iter
             (fun row_exprs ->
               session_insert s table
                 (Array.of_list (List.map (const_value [||]) row_exprs)))
             rows
         | _ -> ignore (exec_statement db stmt))
       stmts
   with e ->
     abort_session s;
     raise e);
  ignore (finish_session s);
  List.iter (fun name -> ignore (analyze db name)) (table_names db);
  db

let dump_to_file t path =
  let oc = open_out_bin path in
  output_string oc (dump t);
  close_out oc

let restore_from_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  restore s

(* ------------------------------------------------------------------ *)
(* Durable databases: page checkpoints + WAL (see Durable, Wal). *)

let checkpoint t =
  match t.durable with
  | None -> ()
  | Some d ->
    if t.cur_tx <> 0 then err "cannot checkpoint during a bulk-load session";
    Obskit.Trace.with_span "db.checkpoint" @@ fun () ->
    let wal = Durable.wal d in
    (* Everything the image will absorb must be durable first: if the
       generation flip fails partway, the WAL still carries it. *)
    Wal.sync wal;
    let tables =
      List.map
        (fun name ->
          let tbl = get_table t name in
          let schema = Table.schema tbl in
          {
            Durable.src_schema = schema;
            src_indexes =
              List.map
                (fun ix ->
                  ( ix.Table.index_name,
                    Array.to_list
                      (Array.map
                         (fun ci -> schema.Schema.columns.(ci).Schema.col_name)
                         ix.Table.key_columns) ))
                (Table.indexes tbl);
            src_iter = (fun f -> Table.iter_slots tbl f);
          })
        (table_names t)
    in
    Durable.checkpoint d ~tables
      ~stats:(Stats.export t.col_stats)
      ~last_lsn:(Wal.last_lsn wal)

let close t =
  match t.durable with
  | None -> ()
  | Some d ->
    checkpoint t;
    Durable.close d;
    t.durable <- None

let abandon t =
  match t.durable with
  | None -> ()
  | Some d ->
    Durable.abandon d;
    t.durable <- None;
    t.cur_tx <- 0

(* WAL replay. Redo repeats history exactly — including the appends of
   transactions that never committed and the truncations of live aborts —
   so row ids always line up with what the log recorded. Undo then
   truncates each loser's appended tail per table, which is precisely
   what a live [abort_session] would have done ([Table.abort_bulk] is a
   truncation of the never-indexed range). DDL is transaction 0: redone
   unconditionally, never undone. *)
let replay t records =
  let touched = Hashtbl.create 16 in (* table key -> unit; stats refresh *)
  let tx_tails = Hashtbl.create 8 in (* tx -> (table key, first rowid) list *)
  let ended = Hashtbl.create 8 in (* committed or aborted *)
  let redone = ref 0 in
  let undone = ref 0 in
  let max_tx = ref 0 in
  let see_tx tx = if tx > !max_tx then max_tx := tx in
  let note_tail tx name rowid =
    if tx <> 0 then begin
      see_tx tx;
      let tails = try Hashtbl.find tx_tails tx with Not_found -> [] in
      if not (List.mem_assoc (key name) tails) then
        Hashtbl.replace tx_tails tx ((key name, rowid) :: tails)
    end
  in
  let truncate_tails tx =
    match Hashtbl.find_opt tx_tails tx with
    | None -> ()
    | Some tails ->
      List.iter
        (fun (k, first) ->
          match Hashtbl.find_opt t.tables k with
          | None -> () (* dropped later in the log; nothing left to undo *)
          | Some tbl ->
            undone := !undone + Table.recover_truncate tbl first;
            Table.rebuild_indexes tbl)
        tails;
      Hashtbl.remove tx_tails tx
  in
  let corrupt fmt = Printf.ksprintf (fun s -> err "WAL replay: %s" s) fmt in
  let find name =
    match find_table t name with
    | Some tbl -> tbl
    | None -> corrupt "no such table %s" name
  in
  let redo_one (_lsn, record) =
      match record with
      | Wal.Begin tx -> see_tx tx
      | Wal.Commit tx ->
        see_tx tx;
        Hashtbl.replace ended tx ();
        Hashtbl.remove tx_tails tx
      | Wal.Abort tx ->
        see_tx tx;
        Hashtbl.replace ended tx ();
        truncate_tails tx;
        incr redone
      | Wal.Insert { tx; table; rowid; row } ->
        let tbl = find table in
        if Table.allocated_rows tbl <> rowid then
          corrupt "%s: insert at row %d but arena holds %d rows" table rowid
            (Table.allocated_rows tbl);
        note_tail tx table rowid;
        ignore (Table.insert tbl row);
        Hashtbl.replace touched (key table) ();
        incr redone
      | Wal.Delete { table; rowid } ->
        ignore (Table.delete (find table) rowid);
        Hashtbl.replace touched (key table) ();
        incr redone
      | Wal.Update { table; rowid; row } ->
        ignore (Table.update (find table) rowid row);
        Hashtbl.replace touched (key table) ();
        incr redone
      | Wal.Create_table schema ->
        ignore (create_table t schema);
        incr redone
      | Wal.Drop_table name ->
        ignore (drop_table t name);
        Hashtbl.remove touched (key name);
        incr redone
      | Wal.Create_index { table; index; columns } ->
        let tbl = find table in
        if Table.find_index tbl index = None then begin
          ignore (Table.create_index tbl ~index_name:index ~columns);
          incr redone
        end
      | Wal.Drop_index { table; index } ->
        if Table.drop_index (find table) index then incr redone
  in
  Obskit.Trace.with_span ~attrs:[ ("records", string_of_int (List.length records)) ]
    "recovery.redo" (fun () ->
      Metrics.timed "db.recovery.redo" (fun () -> List.iter redo_one records));
  (* Losers: begun, some work logged, neither Commit nor Abort survived. *)
  let losers =
    Hashtbl.fold (fun tx _ acc -> if Hashtbl.mem ended tx then acc else tx :: acc) tx_tails []
  in
  Obskit.Trace.with_span ~attrs:[ ("losers", string_of_int (List.length losers)) ]
    "recovery.undo" (fun () ->
      Metrics.timed "db.recovery.undo" (fun () -> List.iter truncate_tails losers));
  Hashtbl.iter
    (fun k () ->
      match Hashtbl.find_opt t.tables k with
      | Some tbl -> Stats.refresh t.col_stats tbl
      | None -> ())
    touched;
  t.next_tx <- !max_tx + 1;
  (!redone, !undone, List.length losers)

let open_durable ?page_size ?pool_pages dir =
  Obskit.Trace.with_span ~attrs:[ ("dir", dir) ] "db.open_durable" @@ fun () ->
  let d, image, scan = Durable.open_dir ?page_size ?pool_pages dir in
  let t = create () in
  t.recovering <- true;
  (match image with
  | None -> ()
  | Some img ->
    Obskit.Trace.with_span
      ~attrs:[ ("tables", string_of_int (List.length img.Durable.im_tables)) ]
      "recovery.image"
      (fun () ->
        Metrics.timed "db.recovery.image" @@ fun () ->
        List.iter
          (fun (ti : Durable.table_image) ->
            let tbl = Table.restore_slots ti.Durable.ti_schema ti.Durable.ti_slots in
            Hashtbl.add t.tables (key ti.Durable.ti_schema.Schema.table_name) tbl;
            List.iter
              (fun (index_name, columns) -> ignore (Table.create_index tbl ~index_name ~columns))
              ti.Durable.ti_indexes)
          img.Durable.im_tables;
        t.ddl_gen <- t.ddl_gen + 1;
        Stats.import t.col_stats img.Durable.im_stats));
  let ckpt = Durable.checkpoint_lsn d in
  let records = List.filter (fun (lsn, _) -> lsn > ckpt) scan.Wal.sc_records in
  let redone, undone, losers =
    match records with
    | [] -> (0, 0, 0)
    | _ ->
      Obskit.Trace.with_span "db.recovery" (fun () ->
          Metrics.timed "db.recovery" (fun () -> replay t records))
  in
  let torn = scan.Wal.sc_total_bytes - scan.Wal.sc_valid_bytes in
  (* The recovery counters exist (at zero) after every durable open, so a
     clean open still exposes the series; a crash recovery adds to them. *)
  Metrics.incr ~by:redone "db.recovery.redo_records";
  Metrics.incr ~by:undone "db.recovery.undone_rows";
  Metrics.incr ~by:losers "db.recovery.losers";
  Metrics.incr ~by:torn "db.recovery.torn_bytes";
  t.recovering <- false;
  t.durable <- Some d;
  Hashtbl.iter (fun _ tbl -> attach_logger t tbl) t.tables;
  t.last_recovery <-
    Some
      {
        rc_scanned = List.length scan.Wal.sc_records;
        rc_redone = redone;
        rc_undone = undone;
        rc_losers = losers;
        rc_torn_bytes = torn;
      };
  (* Anything replayed (or any torn tail cut) is folded into a fresh
     checkpoint immediately: reopening after a crash leaves a clean
     directory, and a second crash replays nothing twice. *)
  if records <> [] || torn > 0 then checkpoint t;
  t

(* Render a result set as an aligned text table (CLI / examples). *)
let render_result (r : Executor.result) =
  let cells = r.Executor.columns :: List.map (fun row -> Array.to_list (Array.map Value.to_string row)) r.Executor.rows in
  let ncols = List.length r.Executor.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell))
    cells;
  let line cells =
    String.concat " | "
      (List.mapi (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ') cells)
  in
  let sep = String.concat "-+-" (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" (line r.Executor.columns :: sep :: List.map line (List.tl cells))
