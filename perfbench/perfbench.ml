(* Data-plane benchmark runner.

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --server PATH/xmlstore_cli.exe --out DIR --work DIR
                       [--rev REV]
     perfbench.exe selftest

   `run` measures one workload against the built server and prints one
   line per metric, then the result object as the last line of stdout.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the run repeats the end-to-end pass (for client and server counts)
   and adds the traced in-process replay, and the metrics are the
   per-layer ones. Every run also writes DIR/<workload>-seed<N>-trace<T>.json
   with a header describing what was measured. *)

module Json = Obskit.Json

let workloads = [ "query_steady"; "load_grow"; "mixed_rw" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe run --workload (query_steady|load_grow|mixed_rw) --seed N --seconds S \
     --trace 0|1 --server EXE --out DIR --work DIR [--rev REV]\n\
    \       perfbench.exe selftest";
  exit 2

let rec parse_args acc = function
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    parse_args ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let num x = Json.Num x
let str s = Json.Str s

let metric_json metrics =
  Json.Obj
    (List.map
       (fun (n, v, u) ->
         (n, Json.Obj [ ("value", if Float.is_finite v then num v else Json.Null); ("unit", str u) ]))
       metrics)

let doc_sizes workload seed seconds =
  let sizes l = Json.List (List.map (fun (d : Inputs.doc) -> num (float_of_int (String.length d.Inputs.xml))) l) in
  match workload with
  | "load_grow" -> [ ("base_doc_bytes", sizes [ Inputs.grow_base seed ]); ("posted_doc_bytes", sizes (Inputs.grow seed)) ]
  | "mixed_rw" ->
    [
      ("preload_doc_bytes", sizes (Inputs.preload seed));
      ( "posted_doc_bytes",
        sizes (List.init (int_of_float (seconds /. E2e.mixed_load_every_s)) (Inputs.small seed)) );
    ]
  | _ ->
    [
      ("preload_doc_bytes", sizes (Inputs.preload seed));
      ("posted_doc_bytes", sizes (List.init E2e.warm_loads (Inputs.small seed)));
    ]

let run args =
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let exe = get "server" and out = get "out" and work = get "work" in
  let rev = Option.value ~default:"unknown" (List.assoc_opt "rev" args) in
  if not (Sys.file_exists exe) then failwith ("no server binary at " ^ exe);
  ensure_dir out;
  E2e.remove_tree work;
  ensure_dir work;
  (* The seed server has been seen to abort ("allocation failure during
     minor GC") about once in forty runs. Such a run is reported on
     stderr and in the result file, and started again once from scratch. *)
  let rec attempt restarts =
    match E2e.run ~workload ~exe ~work ~seed ~seconds with
    | e -> (e, restarts)
    | exception ex when restarts = 0 && Proc.any_exited () ->
      Printf.eprintf "the server died during the run (%s); running it again\n%!"
        (Printexc.to_string ex);
      Proc.stop_all ();
      E2e.remove_tree work;
      ensure_dir work;
      attempt 1
  in
  let e, restarts = attempt 0 in
  let metrics, spans_file =
    if not trace then (e.E2e.metrics, None)
    else begin
      let layers, spans, nq, nl = Replay.run ~workload ~seed ~work in
      let file = Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
      E2e.write_file file (Json.to_string (Spans.to_json spans));
      Printf.printf "# traced replay: %d queries, %d loads, %d spans -> %s\n" nq nl
        (List.length spans) file;
      (e.E2e.layer @ layers, Some file)
    end
  in
  E2e.remove_tree work;
  let header =
    [
      ("workload", str workload);
      ("seed", num (float_of_int seed));
      ("seconds", num seconds);
      ("trace", num (if trace then 1. else 0.));
      ("git_rev", str rev);
      ("host_cores", num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", str Sys.ocaml_version);
      ("scheme", str "edge");
      ("readers", num (float_of_int E2e.readers));
      ( "flush_policy",
        str
          (if workload = "load_grow" then
             "durable store: one WAL fsync per committed load, on the benchmark's own file system"
           else "in-memory store: nothing is flushed") );
    ]
    @ [ ("server_restarts", num (float_of_int restarts)) ]
    @ doc_sizes workload seed seconds
    @ (match spans_file with Some f -> [ ("spans_file", str f) ] | None -> [])
  in
  let unmeasured = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "metric %s was not measured\n" n) unmeasured;
  let correct = e.E2e.failed = 0 && e.E2e.valid && unmeasured = [] in
  (* the raw latency lists go to the result file only *)
  List.iter
    (fun (k, v) ->
      if not (Filename.check_suffix k "_latencies_ms") then
        Printf.printf "# %s: %s\n" k (Json.to_string v))
    (header @ e.E2e.extra);
  List.iter (fun (n, v, u) -> Printf.printf "%s = %.6g %s\n" n v u) metrics;
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", num (float_of_int e.E2e.attempted));
      ("failed", num (float_of_int e.E2e.failed));
      ("metrics", metric_json metrics);
    ]
  in
  let file = Filename.concat out (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0)) in
  E2e.write_file file
    (Json.to_string (Json.Obj ([ ("header", Json.Obj header); ("extra", Json.Obj e.E2e.extra) ] @ result)));
  print_endline (Json.to_string (Json.Obj result));
  if not correct then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse_args [] rest)
  | [ _; "selftest" ] -> Selftest.run ()
  | _ -> usage ()
