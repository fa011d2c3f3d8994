(* The timed end-to-end pass: the built `xmlstore serve` as a child
   process, driven by one single-threaded client over at most two
   keep-alive connections, every answer checked against the oracle. It
   records no benchmark spans. *)

module Clock = Obskit.Clock
module Queries = Xmlwork.Queries

(* Fixed workload constants (also stated in BENCHMARK.json's workload
   descriptions). mixed_rw's rate, load interval and latency limit were
   chosen so that on the seed code the backlog a commit's replica
   rebuild causes drains well before the next commit.

   query_steady and load_grow keep one query in flight at a time: on a
   two-core host a second concurrent query shares the cores with the
   client and with every minor GC's stop-the-world barrier, and the
   figures then follow the scheduler more than the server. mixed_rw
   sends over both connections, as its arrivals demand, and a due load
   goes ahead of waiting queries. *)
let readers = 2
let setups = 9
let sweeps = 3
let warm_loads = 20
let slo_ms = 1500.
let mixed_qps = 10.
let mixed_load_every_s = 2.5
let max_generator_late_ms = 25.

type kind =
  | Query of { doc : int; qid : string; expect : string list }
  | Load of { xml_bytes : int; expect_doc : int }

type job = { kind : kind; bytes : string; due : int }

type outcome = { job : job; sent : int; finished : int; resp : Client.response }

let query_job ?(due = 0) oracle doc (q : Queries.query) =
  {
    kind = Query { doc; qid = q.Queries.qid; expect = List.assoc q.Queries.qid oracle.(doc) };
    bytes = Inputs.query_request doc q.Queries.xpath;
    due;
  }

let load_job ?(due = 0) ~expect_doc (d : Inputs.doc) =
  { kind = Load { xml_bytes = String.length d.Inputs.xml; expect_doc }; bytes = Inputs.load_request d.Inputs.xml; due }

(* Why an outcome is wrong, if it is. *)
let check o =
  if o.resp.Client.status <> 200 then Some (Printf.sprintf "HTTP status %d" o.resp.Client.status)
  else
    match o.job.kind with
    | Query { expect; _ } -> (
      match Inputs.response_values o.resp.Client.body with
      | Error e -> Some e
      | Ok vs when vs = expect -> None
      | Ok vs ->
        Some (Printf.sprintf "%d values, oracle has %d" (List.length vs) (List.length expect)))
    | Load { expect_doc; _ } -> (
      match Inputs.response_doc o.resp.Client.body with
      | Some d when d = expect_doc -> None
      | Some d -> Some (Printf.sprintf "stored as doc %d, expected %d" d expect_doc)
      | None -> Some "load response carries no doc id")

let failures outs = List.filter_map (fun o -> Option.map (fun why -> (o, why)) (check o)) outs

let describe o =
  match o.job.kind with
  | Query { doc; qid; _ } -> Printf.sprintf "(doc %d, %s)" doc qid
  | Load { expect_doc; _ } -> Printf.sprintf "(load of doc %d)" expect_doc

let hard_limit_ns = 150 * 1_000_000_000

(* Closed loop: each idle connection sends the next job as soon as its
   previous answer arrived, until [until] (or the jobs run out); answers
   still in flight at [until] are waited for and kept. [between] runs
   whenever nothing is in flight. *)
let closed_loop ?(between = ignore) client ~until next =
  let out = ref [] in
  let exhausted = ref false in
  let abort_at = Clock.now_ns () + hard_limit_ns in
  let rec fill () =
    if (not !exhausted) && Clock.now_ns () < until then
      match Client.idle client with
      | None -> ()
      | Some i -> (
        match next () with
        | None -> exhausted := true
        | Some j ->
          Client.send client i j.bytes (j, Clock.now_ns ());
          fill ())
  in
  let rec loop () =
    if Client.in_flight client = 0 then between ();
    fill ();
    if Client.in_flight client > 0 then begin
      if Clock.now_ns () > abort_at then failwith "server stopped answering";
      let done_ = Client.poll client ~timeout:1.0 in
      let t = Clock.now_ns () in
      List.iter (fun ((job, sent), resp) -> out := { job; sent; finished = t; resp } :: !out) done_;
      loop ()
    end
  in
  loop ();
  List.rev !out

let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | j :: tl ->
      rest := tl;
      Some j

type open_stats = {
  lateness_ms : float list;  (* generator: dispatch-ready time minus due time *)
  backlog_at_loads : int list;  (* requests queued or in flight when each load fell due *)
  backlog_at_end : int;
}

(* Open loop: jobs fall due at fixed times whatever the server does;
   each waits for a free connection, loads ahead of queries, queries in
   FIFO order. Query latency is measured from the due time, so a stall
   is charged to every query it delays. *)
let lane j = match j.kind with Load _ -> 0 | Query _ -> 1

let open_loop client ~until (arrivals : job list) =
  let out = ref [] in
  let ready = [| Queue.create (); Queue.create () |] in
  let queued () = Array.fold_left (fun n q -> n + Queue.length q) 0 ready in
  let pending = ref arrivals in
  let lateness = ref [] and backlog_loads = ref [] and backlog_end = ref (-1) in
  let abort_at = until + hard_limit_ns in
  let rec loop () =
    let now = Clock.now_ns () in
    if now >= until && !backlog_end < 0 then backlog_end := queued () + Client.in_flight client;
    let rec admit () =
      match !pending with
      | j :: tl when j.due <= now ->
        (match j.kind with
        | Load _ -> backlog_loads := (queued () + Client.in_flight client) :: !backlog_loads
        | Query _ -> ());
        lateness := (float_of_int (now - j.due) /. 1e6) :: !lateness;
        Queue.push j ready.(lane j);
        pending := tl;
        admit ()
      | _ -> ()
    in
    admit ();
    let rec dispatch () =
      match (Client.idle client, Array.find_opt (fun q -> not (Queue.is_empty q)) ready) with
      | Some i, Some q ->
        let j = Queue.pop q in
        Client.send client i j.bytes (j, Clock.now_ns ());
        dispatch ()
      | _ -> ()
    in
    dispatch ();
    if !pending <> [] || queued () > 0 || Client.in_flight client > 0 then begin
      if now > abort_at then failwith "server stopped answering";
      let wait =
        match !pending with
        | j :: _ -> Float.max 0. (float_of_int (j.due - Clock.now_ns ()) /. 1e9)
        | [] -> 1.0
      in
      if Client.in_flight client = 0 then Unix.sleepf wait
      else begin
        let done_ = Client.poll client ~timeout:wait in
        let t = Clock.now_ns () in
        List.iter (fun ((job, sent), resp) -> out := { job; sent; finished = t; resp } :: !out) done_
      end;
      loop ()
    end
  in
  loop ();
  ( List.rev !out,
    { lateness_ms = !lateness; backlog_at_loads = List.rev !backlog_loads; backlog_at_end = max 0 !backlog_end } )

(* ------------------------------------------------------------------ *)
(* Runs *)

type result = {
  metrics : (string * float * string) list;  (* the end-to-end metrics *)
  layer : (string * float * string) list;  (* client- and server-side layer counts *)
  extra : (string * Obskit.Json.t) list;  (* sample counts, backlog, sizes, command lines *)
  attempted : int;
  failed : int;
  valid : bool;  (* false when the open-loop generator fell behind *)
}

type acc = {
  mutable all : outcome list;  (* every request, for correctness *)
  mutable setup_s : float list;
  mutable loads : outcome list;  (* the loads the load metrics describe *)
  mutable queries : outcome list;  (* the queries the query metrics describe *)
  mutable query_s : float;  (* the time those queries had: the sum of their timed windows *)
  mutable counters : (string * float) list;  (* server counters summed over servers *)
}

let new_acc () =
  { all = []; setup_s = []; loads = []; queries = []; query_s = 0.; counters = [] }

let record acc outs = acc.all <- acc.all @ outs

let ms o ~open_ =
  float_of_int (o.finished - if open_ then o.job.due else o.sent) /. 1e6

(* From the first send (or due time) to the last answer. *)
let window_s outs ~open_ =
  let first = List.fold_left (fun a o -> min a (if open_ then o.job.due else o.sent)) max_int outs in
  let last = List.fold_left (fun a o -> max a o.finished) 0 outs in
  float_of_int (last - first) /. 1e9

let counter_names =
  [
    "xmlstore_pool_acquire_build_total"; "xmlstore_pool_acquire_refresh_total";
    "xmlstore_pool_acquire_reuse_total"; "xmlstore_pool_commit_total";
    "xmlstore_db_wal_fsync_total"; "xmlstore_db_wal_bytes_total";
  ]

let add_counters acc server =
  let c = Proc.scrape_counters server in
  acc.counters <-
    List.map
      (fun n -> (n, c n +. Option.value ~default:0. (List.assoc_opt n acc.counters)))
      counter_names

let secs_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Run [jobs] to completion on a fresh client with [conns] connections. *)
let run_jobs ~port ~conns jobs =
  let c = Client.create ~port ~conns in
  let outs = closed_loop c ~until:max_int (of_list jobs) in
  Client.close c;
  outs

let every_pair oracle ids =
  List.concat_map (fun d -> List.map (query_job oracle d) Queries.auction_queries) ids

(* query_steady / mixed_rw set-up, timed: serve the first document
   (written to [doc0]), post the rest, answer /healthz. *)
let preloaded_server acc ~exe ~doc0 docs =
  let t0 = Clock.now_ns () in
  let s = Proc.spawn exe [ "serve"; "--scheme"; "edge"; doc0; "--readers"; string_of_int readers ] in
  let outs =
    run_jobs ~port:s.Proc.port ~conns:1
      (List.mapi (fun i d -> load_job ~expect_doc:(i + 1) d) (List.tl docs))
  in
  let h = Client.get ~port:s.Proc.port "/healthz" in
  if h.Client.status <> 200 then failwith "preloaded server is not healthy";
  acc.setup_s <- secs_since t0 :: acc.setup_s;
  record acc outs;
  s

let write_doc0 ~work docs =
  let doc0 = Filename.concat work "doc0.xml" in
  write_file doc0 (List.hd docs).Inputs.xml;
  doc0

(* [setups] timed set-ups back to back; the last server stays up. *)
let set_up acc ~exe ~doc0 docs =
  for _ = 2 to setups do
    Proc.stop (preloaded_server acc ~exe ~doc0 docs)
  done;
  preloaded_server acc ~exe ~doc0 docs

(* Both connections busy at once, so every reader domain builds its
   replica before the timed window opens. *)
let warm_up acc ~port oracle ndocs =
  record acc (run_jobs ~port ~conns:readers (every_pair oracle (List.init ndocs Fun.id)))

(* Every stored document answers every query correctly. *)
let sweep ~port oracle ids = run_jobs ~port ~conns:1 (every_pair oracle ids)

let all_ids oracle = List.init (Array.length oracle) Fun.id

let stream_jobs oracle seed ~docs =
  let next = Inputs.query_stream seed ~docs in
  fun () ->
    let d, q = next () in
    Some (query_job oracle d q)

(* The load figures come from [warm_loads] small documents posted, one
   every [seconds / warm_loads], into a second server that holds the
   same preloaded store and answers no queries: a post into the queried
   store would make its readers rebuild their replicas inside the timed
   loop. A post goes out only between two queries, while the queried
   server is idle, and its time is left out of the query window. Spread
   over the run, the posts see the same host as the queries. Set-up
   posts, which land in a fresh process, spread 0.19 across seeds, and
   posts in one burst after the loop 0.21, against 0.10 and 0.16 for
   the query figures of the same runs. *)
let query_steady ~exe ~work ~seed ~seconds =
  let acc = new_acc () in
  let docs = Inputs.preload seed in
  let ndocs = List.length docs in
  let smalls = List.init warm_loads (Inputs.small seed) in
  let oracle = Array.of_list (List.map (fun d -> Inputs.answers d.Inputs.xml) (docs @ smalls)) in
  let doc0 = write_doc0 ~work docs in
  let s = set_up acc ~exe ~doc0 docs in
  let w = preloaded_server acc ~exe ~doc0 docs in
  warm_up acc ~port:s.Proc.port oracle ndocs;
  let c = Client.create ~port:s.Proc.port ~conns:1 in
  let wc = Client.create ~port:w.Proc.port ~conns:1 in
  let pending = ref (List.mapi (fun i d -> load_job ~expect_doc:(ndocs + i) d) smalls) in
  let post j = acc.loads <- acc.loads @ closed_loop wc ~until:max_int (of_list [ j ]) in
  let t0 = Clock.now_ns () in
  let until = t0 + int_of_float (seconds *. 1e9) in
  let every_ns = int_of_float (seconds /. float_of_int warm_loads *. 1e9) in
  let next_post = ref (t0 + (every_ns / 2)) and post_ns = ref 0 in
  let between () =
    let now = Clock.now_ns () in
    match !pending with
    | j :: rest when now >= !next_post && now < until ->
      post j;
      post_ns := !post_ns + (Clock.now_ns () - now);
      pending := rest;
      next_post := !next_post + every_ns
    | _ -> ()
  in
  let outs = closed_loop ~between c ~until (stream_jobs oracle seed ~docs:ndocs) in
  List.iter post !pending;
  Client.close c;
  Client.close wc;
  record acc outs;
  record acc acc.loads;
  acc.queries <- outs;
  acc.query_s <- window_s outs ~open_:false -. (float_of_int !post_ns /. 1e9);
  record acc (sweep ~port:s.Proc.port oracle (List.init ndocs Fun.id));
  record acc (sweep ~port:w.Proc.port oracle (List.init warm_loads (fun i -> ndocs + i)));
  Proc.stop w;
  let xml_bytes = List.fold_left (fun n d -> n + String.length d.Inputs.xml) 0 docs in
  (acc, s, c, xml_bytes, None)

let mixed_rw ~exe ~work ~seed ~seconds =
  let acc = new_acc () in
  let docs = Inputs.preload seed in
  let nloads = int_of_float (Float.floor (seconds /. mixed_load_every_s)) in
  let smalls = List.init nloads (Inputs.small seed) in
  let oracle = Array.of_list (List.map (fun d -> Inputs.answers d.Inputs.xml) (docs @ smalls)) in
  let s = set_up acc ~exe ~doc0:(write_doc0 ~work docs) docs in
  warm_up acc ~port:s.Proc.port oracle (List.length docs);
  let c = Client.create ~port:s.Proc.port ~conns:2 in
  let next = Inputs.query_stream seed ~docs:Inputs.preload_docs in
  let t0 = Clock.now_ns () + 50_000_000 in
  let until = t0 + int_of_float (seconds *. 1e9) in
  let gap_ns = int_of_float (1e9 /. mixed_qps) in
  let nq = int_of_float (seconds *. mixed_qps) in
  let queries =
    List.init nq (fun i ->
        let d, q = next () in
        query_job ~due:(t0 + (i * gap_ns)) oracle d q)
  in
  let loads =
    List.mapi
      (fun i d ->
        load_job
          ~due:(t0 + int_of_float ((float_of_int i +. 0.5) *. mixed_load_every_s *. 1e9))
          ~expect_doc:(List.length docs + i) d)
      smalls
  in
  let arrivals = List.stable_sort (fun a b -> compare a.due b.due) (queries @ loads) in
  let outs, ostats = open_loop c ~until arrivals in
  Client.close c;
  record acc outs;
  acc.queries <- List.filter (fun o -> match o.job.kind with Query _ -> true | Load _ -> false) outs;
  acc.query_s <- window_s acc.queries ~open_:true;
  acc.loads <- List.filter (fun o -> match o.job.kind with Load _ -> true | Query _ -> false) outs;
  record acc (sweep ~port:s.Proc.port oracle (all_ids oracle));
  let xml_bytes = List.fold_left (fun n d -> n + String.length d.Inputs.xml) 0 (docs @ smalls) in
  (acc, s, c, xml_bytes, Some ostats)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* load_grow: rounds of (fresh durable store holding the base document,
   closed-loop posts of the same seeded documents). Every round does
   identical work, so the latency distribution does not depend on how
   many rounds fit. *)
let load_grow ~exe ~work ~seed ~seconds =
  let acc = new_acc () in
  let base = Inputs.grow_base seed in
  let docs = Inputs.grow seed in
  let oracle = Array.of_list (List.map (fun d -> Inputs.answers d.Inputs.xml) (base :: docs)) in
  let base_file = Filename.concat work "base.xml" in
  write_file base_file base.Inputs.xml;
  let dir = Filename.concat work "store" in
  let t_start = Clock.now_ns () in
  let rec round k =
    remove_tree dir;
    let t0 = Clock.now_ns () in
    Proc.run exe [ "load"; "-s"; "edge"; base_file; "--durable"; dir ];
    let s = Proc.spawn exe [ "serve"; "--durable"; dir; "--readers"; string_of_int readers ] in
    acc.setup_s <- secs_since t0 :: acc.setup_s;
    let c = Client.create ~port:s.Proc.port ~conns:1 in
    let outs =
      closed_loop c ~until:max_int
        (of_list (List.mapi (fun i d -> load_job ~expect_doc:(i + 1) d) docs))
    in
    Client.close c;
    record acc outs;
    acc.loads <- acc.loads @ outs;
    if secs_since t_start >= seconds && k >= setups then (s, c)
    else begin
      add_counters acc s;
      Proc.stop s;
      round (k + 1)
    end
  in
  let s, c = round 1 in
  (* the first query pays the replica build of the grown store *)
  record acc
    (run_jobs ~port:s.Proc.port ~conns:1 [ query_job oracle 0 (List.hd Queries.auction_queries) ]);
  let outs = List.concat (List.init sweeps (fun _ -> sweep ~port:s.Proc.port oracle (all_ids oracle))) in
  record acc outs;
  acc.queries <- outs;
  acc.query_s <- window_s outs ~open_:false;
  let xml_bytes = List.fold_left (fun n d -> n + String.length d.Inputs.xml) 0 (base :: docs) in
  (acc, s, c, xml_bytes, None)

let finish (acc, server, (client : (job * int) Client.t), xml_bytes, ostats) =
  let rss = Proc.vm_hwm_mb server in
  let stored = Proc.stored_bytes server in
  add_counters acc server;
  Proc.stop server;

  let failures = failures acc.all in
  List.iter
    (fun (o, why) -> Printf.eprintf "wrong answer %s: %s\n%!" (describe o) why)
    failures;
  let open_ = ostats <> None in
  let qlat = List.map (ms ~open_) acc.queries in
  (* a load is timed from its send: in mixed_rw a due load goes ahead of
     every waiting query, so before its send it only waits for one of
     the client's two connections to come free *)
  let llat = List.map (ms ~open_:false) acc.loads in
  let ok_queries = List.filter (fun o -> check o = None) acc.queries in
  let within = List.filter (fun o -> ms ~open_ o <= slo_ms) ok_queries in
  let load_bytes =
    List.fold_left
      (fun n o -> match o.job.kind with Load { xml_bytes; _ } -> n + xml_bytes | Query _ -> n)
      0 acc.loads
  in
  let nq = List.length acc.queries in
  let first_start =
    List.fold_left (fun a o -> min a (if open_ then o.job.due else o.sent)) max_int acc.queries
  in
  let metrics =
    [
      ("setup_s", Stats.median acc.setup_s, "s");
      ("query_tail10_ms", Stats.tail_mean 10. qlat, "ms");
      ("query_qps", float_of_int (List.length ok_queries) /. acc.query_s, "1/s");
      ("load_mean_ms", Stats.mean llat, "ms");
      ("load_xml_mb_s", float_of_int load_bytes /. 1e6 /. (Stats.sum llat /. 1e3), "MB/s");
      ("slo_share", Stats.ratio (float_of_int (List.length within)) (float_of_int nq), "ratio");
      ("stored_bytes_per_xml_byte", stored /. float_of_int xml_bytes, "ratio");
      ("server_rss_mb", rss, "MB");
    ]
  in
  let counter n = Option.value ~default:0. (List.assoc_opt n acc.counters) in
  let commits = counter "xmlstore_pool_commit_total" in
  let layer =
    [
      ( "http.connects_per_100_req",
        100. *. float_of_int client.Client.connects /. float_of_int (max 1 client.Client.sent),
        "count" );
      ( "pool.rebuilds_per_commit",
        Stats.ratio
          (counter "xmlstore_pool_acquire_build_total" +. counter "xmlstore_pool_acquire_refresh_total")
          commits,
        "count" );
    ]
  in
  let attempted = List.length acc.all and failed = List.length failures in
  let late_p99 = match ostats with Some o -> Stats.percentile 99. o.lateness_ms | None -> 0. in
  let valid = late_p99 <= max_generator_late_ms in
  if not valid then
    Printf.eprintf "invalid run: the open-loop generator ran %.1f ms late at p99 (bound %.0f ms)\n%!"
      late_p99 max_generator_late_ms;
  let num x = Obskit.Json.Num x in
  let extra =
    [
      ("fail_share", num (Stats.ratio (float_of_int failed) (float_of_int attempted)));
      ("query_samples", num (float_of_int nq));
      ("query_p50_ms", num (Stats.median qlat));
      ("query_mean_ms", num (Stats.mean qlat));
      ("query_p90_ms", num (Stats.percentile 90. qlat));
      ("load_p50_ms", num (Stats.median llat));
      ("load_p90_ms", num (Stats.percentile 90. llat));
      ("load_samples", num (float_of_int (List.length acc.loads)));
      ("setup_samples", num (float_of_int (List.length acc.setup_s)));
      ("query_p90_supported", Obskit.Json.Bool (Stats.supports 90. nq));
      ("slo_ms", num slo_ms);
      ( "query_latencies_ms",
        Obskit.Json.List
          (List.filter_map
             (fun o ->
               match o.job.kind with
               | Query { qid; _ } ->
                 let start = if open_ then o.job.due else o.sent in
                 Some
                   (Obskit.Json.List
                      [ Obskit.Json.Str qid; num (ms ~open_ o); num (float_of_int (start - first_start) /. 1e6) ])
               | Load _ -> None)
             acc.queries) );
      ("load_latencies_ms", Obskit.Json.List (List.map num llat));
      ("server_command", Obskit.Json.Str (String.concat " " server.Proc.command));
      ("xml_bytes_stored", num (float_of_int xml_bytes));
      ("server_counters", Obskit.Json.Obj (List.map (fun (n, v) -> (n, num v)) acc.counters));
    ]
    @
    match ostats with
    | None -> []
    | Some o ->
      [
        ("mixed_qps", num mixed_qps);
        ("mixed_load_every_s", num mixed_load_every_s);
        ("generator_late_p99_ms", num late_p99);
        ("backlog_at_end", num (float_of_int o.backlog_at_end));
        ( "backlog_at_loads",
          Obskit.Json.List (List.map (fun b -> num (float_of_int b)) o.backlog_at_loads) );
      ]
  in
  { metrics; layer; extra; attempted; failed; valid }

let run ~workload ~exe ~work ~seed ~seconds =
  let parts =
    match workload with
    | "query_steady" -> query_steady ~exe ~work ~seed ~seconds
    | "mixed_rw" -> mixed_rw ~exe ~work ~seed ~seconds
    | "load_grow" -> load_grow ~exe ~work ~seed ~seconds
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  finish parts
