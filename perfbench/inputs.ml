(* Everything a run feeds the server, made from the run's seed alone:
   the auction documents, the query stream, and the oracle answers each
   query must return. The server only ever sees the generated files and
   request bodies. *)

module Rng = Xmlwork.Rng
module Queries = Xmlwork.Queries

(* Workload shape. query_steady and mixed_rw query [preload_docs]
   scale-1.0 documents (about 75 KB each); load_grow posts [grow_docs]
   documents of scale 0.1 to 0.4 into a store holding one scale-1.0 base
   document, so its grown store is about as large as the others';
   mixed_rw's periodic loads are scale-0.05 documents (about 4 KB). *)
let preload_docs = 3
let preload_scale = 1.0
let grow_docs = 12
let grow_scales = [| 0.1; 0.2; 0.3; 0.4 |]
let small_scale = 0.05

type doc = { xml : string }

(* An independent sub-seed per purpose, so adding a document to one
   list never shifts another list's contents. *)
let derive seed k = Int64.to_int (Rng.next (Rng.create ((seed * 1_000_003) + k))) land 0x3fff_ffff

let auction ~seed ~scale =
  let dom =
    Xmlwork.Auction.generate ~params:{ Xmlwork.Auction.seed; scale; description_words = 8 } ()
  in
  { xml = Xmlkit.Serializer.to_string dom }

let preload seed = List.init preload_docs (fun i -> auction ~seed:(derive seed i) ~scale:preload_scale)
let grow_base seed = auction ~seed:(derive seed 100) ~scale:1.0

(* Every seed posts the same multiset of scales, in its own order, so the
   grown store's size (which sets both load and query cost) does not
   vary with the seed. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let grow seed =
  let scales = Array.init grow_docs (fun i -> grow_scales.(i mod Array.length grow_scales)) in
  shuffle (Rng.create (derive seed 101)) scales;
  List.init grow_docs (fun i -> auction ~seed:(derive seed (200 + i)) ~scale:scales.(i))

let small seed i = auction ~seed:(derive seed (1000 + i)) ~scale:small_scale

(* The query stream: (document, query) pairs drawn uniformly, in
   shuffled cycles that each hold every pair once. Every query class
   therefore keeps exactly its share of any long prefix, which keeps the
   latency percentiles from jumping between classes from run to run. *)
let query_stream seed ~docs =
  let rng = Rng.create (derive seed 500) in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun d -> List.map (fun q -> (d, q)) Queries.auction_queries)
         (List.init docs Fun.id))
  in
  let cycle = ref [||] in
  let pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cycle then begin
      let a = Array.copy pairs in
      shuffle rng a;
      cycle := a;
      pos := 0
    end;
    let p = !cycle.(!pos) in
    incr pos;
    p

(* The oracle: the native XPath evaluator over the same bytes the server
   parses. *)
let answers xml =
  let ix = Xmlkit.Index.of_document (Xmlkit.Parser.parse xml) in
  List.map
    (fun (q : Queries.query) -> (q.Queries.qid, Xpathkit.Eval.select_strings ix q.Queries.xpath))
    Queries.auction_queries

let query_body doc xpath =
  Obskit.Json.to_string
    (Obskit.Json.Obj [ ("doc", Obskit.Json.Num (float_of_int doc)); ("xpath", Obskit.Json.Str xpath) ])

let request ~path body =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s" path
    (String.length body) body

let query_request doc xpath = request ~path:"/query" (query_body doc xpath)
let load_request xml = request ~path:"/load" xml

(* The values a /query response carries, or why it has none. *)
let response_values body =
  match Obskit.Json.parse body with
  | Error e -> Error ("response is not JSON: " ^ e)
  | Ok json -> (
    match Option.bind (Obskit.Json.member "values" json) Obskit.Json.to_list with
    | None -> Error "response has no values list"
    | Some vs ->
      let strs = List.filter_map Obskit.Json.to_str vs in
      if List.length strs = List.length vs then Ok strs else Error "non-string value")

let response_doc body =
  match Obskit.Json.parse body with
  | Error _ -> None
  | Ok json -> Option.map int_of_float (Option.bind (Obskit.Json.member "doc" json) Obskit.Json.to_float)
