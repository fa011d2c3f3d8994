(* The pool's HTTP data plane: query and load dispatch onto the store
   pool, plus the store's observability endpoints delegated to the
   primary. Designed to be served by several domains at once
   (Servekit.Server.run_parallel): queries run on pool replicas, loads
   serialize through the pool's writer path, and everything the
   observability handler touches runs under the primary's write lock.

     POST /query   {"doc": N, "xpath": "..."}  (or ?doc=N&xpath=...)
                   -> {"doc", "xpath", "count", "values", "fallback",
                       "epoch"}
     POST /load    XML document body, ?name=... optional
                   -> {"doc", "epoch"}
     GET  /pool    pool occupancy and epoch
     GET  <other>  Store.handle on the primary (/metrics /healthz
                   /slowlog /traces /stats) *)

module Store = Xmlstore.Store
module Http = Servekit.Http
module Json = Obskit.Json

let json_response status json =
  { Http.status; content_type = "application/json"; body = Json.to_string json ^ "\n" }

let text_response status body = { Http.status; content_type = "text/plain"; body }

let bad_request fmt = Printf.ksprintf (fun msg -> json_response 400 (Json.Obj [ ("error", Json.Str msg) ])) fmt

(* The query target: the JSON body when one is sent, query parameters
   otherwise (handy for curl smoke tests). *)
let query_args (req : Http.request) =
  if String.length req.Http.body > 0 then
    match Json.parse req.Http.body with
    | Error e -> Error (Printf.sprintf "body is not JSON: %s" e)
    | Ok json -> (
      match (Json.member "doc" json, Json.member "xpath" json) with
      | Some doc, Some xpath -> (
        match (Json.to_float doc, Json.to_str xpath) with
        | Some d, Some x -> Ok (int_of_float d, x)
        | _ -> Error "doc must be a number and xpath a string")
      | _ -> Error "body must carry doc and xpath fields")
  else
    match (Http.query_param req "doc", Http.query_param req "xpath") with
    | Some d, Some x -> (
      match int_of_string_opt d with
      | Some d -> Ok (d, x)
      | None -> Error (Printf.sprintf "doc %S is not an integer" d))
    | _ -> Error "pass a JSON body {\"doc\": N, \"xpath\": \"...\"} or ?doc=N&xpath=..."

let query_response pool doc xpath =
  match Pool.query pool doc xpath with
  | r, epoch ->
    json_response 200
      (Json.Obj
         [
           ("doc", Json.Num (float_of_int doc));
           ("xpath", Json.Str xpath);
           ("count", Json.Num (float_of_int (List.length r.Store.values)));
           ("values", Json.List (List.map (fun v -> Json.Str v) r.Store.values));
           ("fallback", Json.Bool r.Store.fallback);
           ("epoch", Json.Num (float_of_int epoch));
         ])
  | exception Store.Store_error msg -> bad_request "%s" msg
  | exception Xpathkit.Parser.Parse_error msg -> bad_request "bad xpath: %s" msg

let load_response pool ?name body =
  if String.length body = 0 then bad_request "POST an XML document as the request body"
  else
    match Pool.load_string ?name pool body with
    | doc, epoch ->
      json_response 200
        (Json.Obj
           [
             ("doc", Json.Num (float_of_int doc));
             ("epoch", Json.Num (float_of_int epoch));
           ])
    | exception Store.Store_error msg -> bad_request "%s" msg
    | exception Xmlkit.Parser.Parse_error e ->
      bad_request "bad XML: %s" (Xmlkit.Parser.error_to_string e)

let pool_json pool =
  Json.Obj
    [
      ("scheme", Json.Str (Pool.scheme pool));
      ("readers", Json.Num (float_of_int (Pool.size pool)));
      ("outstanding", Json.Num (float_of_int (Pool.outstanding pool)));
      ("idle_replicas", Json.Num (float_of_int (Pool.idle_replicas pool)));
      ("epoch", Json.Num (float_of_int (Pool.epoch pool)));
    ]

let handler pool (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/query" -> (
    match query_args req with
    | Error msg -> bad_request "%s" msg
    | Ok (doc, xpath) -> query_response pool doc xpath)
  | "POST", "/load" -> load_response pool ?name:(Http.query_param req "name") req.Http.body
  | "GET", "/pool" -> json_response 200 (pool_json pool)
  | "GET", "/" ->
    text_response 200
      "xmlstore data plane: POST /query /load; GET /pool /metrics /healthz /slowlog /traces \
       /stats\n"
  | "GET", _ -> Pool.with_primary pool (fun store -> Store.handle store req)
  | _, _ -> text_response 405 "only GET, and POST on /query and /load, are supported\n"

let serve ?host ?port pool =
  Store.declare_storage_series ();
  Pool.declare_series ();
  Servekit.Server.create ?host ?port (handler pool)
