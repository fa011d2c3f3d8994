(* Tests for the HTTP server: parser unit and fuzz coverage (malformed
   input must map onto typed 4xx errors, never an exception), plus an
   end-to-end fork test that serves a live store through a one-reader
   pool on an ephemeral port and scrapes every observability endpoint
   over a real socket. *)

module Http = Servekit.Http
module Server = Servekit.Server
module Store = Xmlstore.Store
module Metrics = Relstore.Metrics
module Prom = Obskit.Prom
module Json = Obskit.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let doc_src =
  "<site><people><person id=\"p1\"><name>Ada</name></person><person id=\"p2\">\
   <name>Grace</name></person></people><regions><africa><item id=\"i1\">\
   <name>Lamp</name></item></africa></regions></site>"

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Parser: well-formed requests *)

let test_parse_ok () =
  match Http.parse_string "GET /slowlog?limit=5&x=a%20b HTTP/1.1\r\nHost: h\r\nX-Y: z\r\n\r\n" with
  | Error _ -> Alcotest.fail "well-formed request rejected"
  | Ok r ->
    check_string "method" "GET" r.Http.meth;
    check_string "path" "/slowlog" r.Http.path;
    check_string "version" "HTTP/1.1" r.Http.version;
    check_bool "limit param" true (Http.query_param r "limit" = Some "5");
    check_bool "pct-decoded param" true (Http.query_param r "x" = Some "a b");
    check_bool "absent param" true (Http.query_param r "nope" = None);
    check_bool "headers lowercased" true
      (List.assoc_opt "host" r.Http.headers = Some "h"
      && List.assoc_opt "x-y" r.Http.headers = Some "z")

let test_parse_bare_lf () =
  (* bare-LF line endings are tolerated *)
  match Http.parse_string "GET / HTTP/1.0\nHost: h\n\n" with
  | Ok r ->
    check_string "path" "/" r.Http.path;
    check_string "version" "HTTP/1.0" r.Http.version
  | Error _ -> Alcotest.fail "bare-LF request rejected"

let test_parse_errors () =
  let bad s =
    match Http.parse_string s with
    | Ok _ -> Alcotest.failf "accepted malformed request %S" s
    | Error e -> (
      match Http.response_of_error e with
      | Some r when r.Http.status >= 400 && r.Http.status < 500 -> ()
      | Some r -> Alcotest.failf "non-4xx response %d for %S" r.Http.status s
      | None -> () (* Closed: no response, also clean *))
  in
  bad "";
  bad "GET";
  bad "GET /";
  bad "GET / HTTP/2.0\r\n\r\n";
  bad "GET / JUNK\r\n\r\n";
  bad " / HTTP/1.1\r\n\r\n";
  bad "GE T / HTTP/1.1\r\n\r\n";
  bad "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  bad "GET / HTTP/1.1\r\n: empty-name\r\n\r\n";
  bad ("GET /" ^ String.make Http.max_request_line 'a' ^ " HTTP/1.1\r\n\r\n")

let test_parse_limits () =
  (* header count limit *)
  let b = Buffer.create 4096 in
  Buffer.add_string b "GET / HTTP/1.1\r\n";
  for i = 1 to Http.max_header_count + 1 do
    Buffer.add_string b (Printf.sprintf "h%d: v\r\n" i)
  done;
  Buffer.add_string b "\r\n";
  (match Http.parse_string (Buffer.contents b) with
  | Error (Http.Too_large _) -> ()
  | Ok _ -> Alcotest.fail "header-count limit not enforced"
  | Error _ -> Alcotest.fail "wrong error for header flood");
  (* header byte budget *)
  let big = "GET / HTTP/1.1\r\nbig: " ^ String.make Http.max_header_bytes 'x' ^ "\r\n\r\n" in
  match Http.parse_string big with
  | Error (Http.Too_large _) -> ()
  | Ok _ -> Alcotest.fail "header-byte limit not enforced"
  | Error _ -> Alcotest.fail "wrong error for oversized header"

let test_render () =
  let r = Http.render { Http.status = 404; content_type = "text/plain"; body = "gone" } in
  check_bool "status line" true (contains r "HTTP/1.1 404 Not Found\r\n");
  check_bool "length" true (contains r "Content-Length: 4\r\n");
  check_bool "close" true (contains r "Connection: close\r\n");
  check_bool "body last" true
    (String.length r >= 4 && String.sub r (String.length r - 4) 4 = "gone");
  let ka = Http.render ~keep_alive:true { Http.status = 200; content_type = "text/plain"; body = "" } in
  check_bool "keep-alive advertised" true (contains ka "Connection: keep-alive\r\n");
  check_bool "keep-alive never closes" true (not (contains ka "Connection: close"))

let test_parse_body () =
  (match Http.parse_string "POST /load HTTP/1.1\r\nContent-Length: 11\r\n\r\n<doc>x</doc>" with
  | Ok r ->
    check_string "body honours content-length" "<doc>x</do" (String.sub r.Http.body 0 10);
    check_int "body length" 11 (String.length r.Http.body)
  | Error _ -> Alcotest.fail "POST with body rejected");
  (match Http.parse_string "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n" with
  | Ok r -> check_string "no content-length means empty body" "" r.Http.body
  | Error _ -> Alcotest.fail "bodyless request rejected");
  (* over-budget bodies are refused before being read *)
  (match
     Http.parse_string
       (Printf.sprintf "POST /load HTTP/1.1\r\nContent-Length: %d\r\n\r\n" (Http.max_body_bytes + 1))
   with
  | Error (Http.Body_too_large _ as e) -> (
    match Http.response_of_error e with
    | Some r -> check_int "renders as 413" 413 r.Http.status
    | None -> Alcotest.fail "Body_too_large has no response")
  | Ok _ -> Alcotest.fail "body budget not enforced"
  | Error _ -> Alcotest.fail "wrong error for oversized body");
  (* chunked encoding is not implemented: typed 4xx, never a hang *)
  match Http.parse_string "POST /load HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n" with
  | Error (Http.Bad_request _) -> ()
  | Ok _ -> Alcotest.fail "chunked transfer-encoding accepted"
  | Error _ -> Alcotest.fail "wrong error for transfer-encoding"

let test_keep_alive_intent () =
  let req s =
    match Http.parse_string s with Ok r -> r | Error _ -> Alcotest.fail "request rejected"
  in
  check_bool "1.1 default keeps alive" true
    (Http.keep_alive (req "GET / HTTP/1.1\r\nHost: h\r\n\r\n"));
  check_bool "1.1 close honored" false
    (Http.keep_alive (req "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  check_bool "1.0 default closes" false
    (Http.keep_alive (req "GET / HTTP/1.0\r\nHost: h\r\n\r\n"));
  check_bool "1.0 opt-in keeps alive" true
    (Http.keep_alive (req "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"))

(* ------------------------------------------------------------------ *)
(* Parser fuzz: arbitrary byte soup must yield Ok or a typed error,
   never an exception, and every error must render as a 4xx (or
   nothing, for Closed). *)

let request_fragment =
  QCheck.Gen.oneof
    [
      QCheck.Gen.oneofl
        [
          "GET"; "POST"; "/"; "/metrics"; "/slowlog?limit=3"; "HTTP/1.1"; "HTTP/1.0";
          "HTTP/9.9"; " "; "\r\n"; "\n"; "\r"; ":"; "Host: x"; "a:b"; "%"; "%2"; "%zz";
          "?"; "="; "&"; "+"; "\x00"; "\xff"; "";
        ];
      QCheck.Gen.map (fun n -> String.make n 'A') (QCheck.Gen.int_range 0 300);
      QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range '\x00' '\xff')
        (QCheck.Gen.int_range 0 40);
    ]

let request_soup =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 30) request_fragment))

let parser_total_prop =
  QCheck.Test.make ~name:"parser is total: Ok or typed 4xx, no exception" ~count:500
    request_soup
    (fun soup ->
      match Http.parse_string soup with
      | Ok r -> String.length r.Http.meth > 0 && String.length r.Http.path > 0
      | Error e -> (
        match Http.response_of_error e with
        | Some r -> r.Http.status >= 400 && r.Http.status < 500
        | None -> e = Http.Closed)
      | exception ex ->
        QCheck.Test.fail_reportf "parser raised %s on %S" (Printexc.to_string ex) soup)

(* a valid prefix followed by junk still parses: pipelined garbage after
   the blank line is someone else's problem *)
let pipelined_junk_prop =
  QCheck.Test.make ~name:"valid request survives pipelined junk" ~count:200
    request_soup
    (fun junk ->
      match Http.parse_string ("GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n" ^ junk) with
      | Ok r -> r.Http.path = "/metrics"
      | Error _ -> QCheck.Test.fail_report "junk after blank line broke the parse")

(* truncating a valid request at any byte never raises *)
let truncation_prop =
  QCheck.Test.make ~name:"truncated requests fail cleanly" ~count:200
    QCheck.(int_range 0 43)
    (fun n ->
      let full = "GET /stats?limit=2 HTTP/1.1\r\nHost: hh\r\n\r\n" in
      let cut = String.sub full 0 (min n (String.length full)) in
      match Http.parse_string cut with
      | Ok _ -> n >= String.length full - 1
      | Error _ -> true
      | exception ex ->
        QCheck.Test.fail_reportf "raised %s at cut %d" (Printexc.to_string ex) n)

(* ------------------------------------------------------------------ *)
(* End-to-end: serve a live store's pool in a forked child, scrape it *)

let expect_json body =
  match Json.parse body with
  | Ok j -> j
  | Error e -> Alcotest.failf "invalid JSON body: %s (%s)" e body

let test_serve_end_to_end () =
  Metrics.reset ();
  let store = Store.create ~metrics_label:"srv" "edge" in
  let doc = Store.add_string store doc_src in
  Store.set_slow_threshold store (Some 0.0);
  ignore (Store.query store doc "/site/people/person/name");
  ignore (Store.query store doc "/site/regions/africa/item/name");
  let server = Storepool.Service.serve (Storepool.Pool.create ~readers:1 store) in
  let port = Server.port server in
  check_bool "ephemeral port bound" true (port > 0);
  match Unix.fork () with
  | 0 ->
    (* child: serve until killed; _exit avoids flushing shared buffers *)
    (try Server.run_parallel ~domains:1 server with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Server.stop server)
    @@ fun () ->
    (* /metrics: lint-clean exposition containing the storage catalog *)
    let status, body = Server.get ~port "/metrics" in
    check_int "metrics 200" 200 status;
    (match Prom.lint body with
    | Ok () -> ()
    | Error problems -> Alcotest.fail (String.concat "; " problems));
    List.iter
      (fun series ->
        if not (contains body series) then
          Alcotest.failf "/metrics missing %s" series)
      [
        "xmlstore_db_wal_append_total"; "xmlstore_db_checkpoint_total";
        "xmlstore_db_recovery_redo_records_total"; "xmlstore_buffer_pool_read_total";
        "xmlstore_db_btree_leaf_split_total"; "xmlstore_store_query_edge_seconds";
      ];
    (* /healthz: ok for a live in-memory store *)
    let status, body = Server.get ~port "/healthz" in
    check_int "healthz 200" 200 status;
    (match expect_json body with
    | Json.Obj fields ->
      check_bool "ok flag" true (List.assoc_opt "ok" fields = Some (Json.Bool true))
    | _ -> Alcotest.fail "healthz not an object");
    (* /slowlog honours ?limit *)
    let status, body = Server.get ~port "/slowlog?limit=1" in
    check_int "slowlog 200" 200 status;
    (match expect_json body with
    | Json.List entries ->
      check_int "limit applied" 1 (List.length entries);
      (match entries with
      | Json.Obj fields :: _ ->
        check_bool "entry has xpath" true (List.mem_assoc "xpath" fields);
        check_bool "entry has gc bytes" true (List.mem_assoc "minor_bytes" fields)
      | _ -> Alcotest.fail "slowlog entry not an object")
    | _ -> Alcotest.fail "slowlog not a list");
    (* /stats reflects the store *)
    let status, body = Server.get ~port "/stats" in
    check_int "stats 200" 200 status;
    (match expect_json body with
    | Json.Obj fields ->
      check_bool "scheme" true (List.assoc_opt "scheme" fields = Some (Json.Str "edge"));
      check_bool "documents" true
        (List.assoc_opt "documents" fields = Some (Json.Num 1.0))
    | _ -> Alcotest.fail "stats not an object");
    (* /traces is valid chrome JSON *)
    let status, body = Server.get ~port "/traces" in
    check_int "traces 200" 200 status;
    (match Obskit.Export.validate_chrome_json body with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "traces: %s" e);
    (* unknown path and wrong verb *)
    let status, _ = Server.get ~port "/nope" in
    check_int "404" 404 status;
    Metrics.reset ()

(* Abortive peers — reset mid-request, or gone before the response is
   written — must surface as catchable errors (not SIGPIPE, not an
   escaped ECONNRESET) and leave the accept loop serving. *)
let test_abortive_clients_survived () =
  let server =
    Server.create (fun _ -> { Http.status = 200; content_type = "text/plain"; body = "pong\n" })
  in
  let port = Server.port server in
  match Unix.fork () with
  | 0 ->
    (try Server.run server with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Server.stop server)
    @@ fun () ->
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
    let abort_after send_req =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock addr;
      if send_req then begin
        let req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n" in
        ignore (Unix.write_substring sock req 0 (String.length req))
      end
      else ignore (Unix.write_substring sock "GET /" 0 5);
      (* linger 0 + close = RST: the server sees ECONNRESET on read or
         EPIPE/ECONNRESET on the response write *)
      Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0);
      Unix.close sock
    in
    for _ = 1 to 3 do
      abort_after false;
      abort_after true
    done;
    (* the loop is still alive and answers a well-behaved client *)
    let status, body = Server.get ~port "/ping" in
    check_int "still serving" 200 status;
    check_bool "body intact" true (body = "pong\n")

(* One TCP connection, several requests: HTTP/1.1 keep-alive must hold
   the connection across requests and drop it when the client says
   Connection: close. *)
let test_keep_alive_end_to_end () =
  let hits = Atomic.make 0 in
  let server =
    Server.create (fun req ->
        let n = Atomic.fetch_and_add hits 1 + 1 in
        { Http.status = 200;
          content_type = "text/plain";
          body = Printf.sprintf "hit %d on %s\n" n req.Http.path })
  in
  let port = Server.port server in
  match Unix.fork () with
  | 0 ->
    (try Server.run server with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Server.stop server)
    @@ fun () ->
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect sock addr;
    let send s = ignore (Unix.write_substring sock s 0 (String.length s)) in
    (* read one full response: headers + Content-Length body *)
    let read_response () =
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 1024 in
      let rec headers_done () =
        if not (contains (Buffer.contents buf) "\r\n\r\n") then begin
          let n = Unix.read sock chunk 0 (Bytes.length chunk) in
          if n = 0 then Alcotest.fail "peer closed mid-headers";
          Buffer.add_subbytes buf chunk 0 n;
          headers_done ()
        end
      in
      headers_done ();
      let s = Buffer.contents buf in
      let hdr_end =
        let rec find i =
          if i + 4 > String.length s then Alcotest.fail "no header terminator"
          else if String.sub s i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        find 0
      in
      let want =
        (* minimal Content-Length scrape over the raw header block *)
        let lower = String.lowercase_ascii (String.sub s 0 hdr_end) in
        let key = "content-length:" in
        let rec find i =
          if i + String.length key > String.length lower then 0
          else if String.sub lower i (String.length key) = key then
            let rest = String.sub lower (i + String.length key) (String.length lower - i - String.length key) in
            let line = List.hd (String.split_on_char '\r' rest) in
            int_of_string (String.trim line)
          else find (i + 1)
        in
        find 0
      in
      let rec fill () =
        if Buffer.length buf < hdr_end + want then begin
          let n = Unix.read sock chunk 0 (Bytes.length chunk) in
          if n = 0 then Alcotest.fail "peer closed mid-body";
          Buffer.add_subbytes buf chunk 0 n;
          fill ()
        end
      in
      fill ();
      let s = Buffer.contents buf in
      (String.sub s 0 hdr_end, String.sub s hdr_end want)
    in
    send "GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
    let hdrs1, body1 = read_response () in
    check_bool "first response keeps alive" true
      (contains (String.lowercase_ascii hdrs1) "connection: keep-alive");
    check_string "first body" "hit 1 on /a\n" body1;
    send "GET /b HTTP/1.1\r\nHost: h\r\n\r\n";
    let hdrs2, body2 = read_response () in
    check_bool "second response on same socket" true
      (contains (String.lowercase_ascii hdrs2) "connection: keep-alive");
    check_string "second body" "hit 2 on /b\n" body2;
    send "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
    let hdrs3, body3 = read_response () in
    check_bool "close honored in response" true
      (contains (String.lowercase_ascii hdrs3) "connection: close");
    check_string "third body" "hit 3 on /c\n" body3;
    (* server must now close its end: next read sees EOF *)
    let chunk = Bytes.create 16 in
    check_int "connection closed after close" 0 (Unix.read sock chunk 0 16)

let test_server_stop_idempotent () =
  let server = Server.create (fun _ -> { Http.status = 200; content_type = "text/plain"; body = "" }) in
  check_bool "port bound" true (Server.port server > 0);
  Server.stop server;
  Server.stop server;
  check_bool "handle_one after stop" true (not (Server.handle_one server))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "http",
        [
          Alcotest.test_case "well-formed request" `Quick test_parse_ok;
          Alcotest.test_case "bare-LF request" `Quick test_parse_bare_lf;
          Alcotest.test_case "malformed requests" `Quick test_parse_errors;
          Alcotest.test_case "limits enforced" `Quick test_parse_limits;
          Alcotest.test_case "request bodies" `Quick test_parse_body;
          Alcotest.test_case "keep-alive intent" `Quick test_keep_alive_intent;
          Alcotest.test_case "response rendering" `Quick test_render;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest parser_total_prop;
          QCheck_alcotest.to_alcotest pipelined_junk_prop;
          QCheck_alcotest.to_alcotest truncation_prop;
        ] );
      ( "server",
        [
          Alcotest.test_case "end-to-end scrape" `Quick test_serve_end_to_end;
          Alcotest.test_case "abortive clients survived" `Quick test_abortive_clients_survived;
          Alcotest.test_case "keep-alive end to end" `Quick test_keep_alive_end_to_end;
          Alcotest.test_case "stop idempotent" `Quick test_server_stop_idempotent;
        ] );
    ]
