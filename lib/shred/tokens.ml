(* The token-stream storage structure the tutorial devotes a section to:
   the document as its linear SAX event sequence, one relational row per
   token.

     tok(doc, seq, kind, name, value, depth)

   kind: 's' start-element, 'e' end-element, 't' text, 'a' attribute
   (attributes follow their start token), 'c' comment, 'p' PI.

   Loading is a single append-only pass and reconstruction replays the
   stream in seq order — the strengths the tutorial lists. Navigation is
   the weakness: like the blob, path queries fall back to rebuilding the
   tree, but unlike the blob the engine can still answer token-level SQL
   (tag histograms, text search) without parsing. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Sax = Xmlkit.Sax
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "tokens"
let description = "linear token stream, one row per SAX event"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS tok (doc INTEGER NOT NULL, seq INTEGER NOT NULL, kind TEXT \
        NOT NULL, name TEXT, value TEXT, depth INTEGER NOT NULL)")

let create_indexes db =
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS tok_seq ON tok (seq)");
  ignore (Db.exec db "CREATE INDEX IF NOT EXISTS tok_name ON tok (name)")

let shred_into sink ~doc ix =
  let seq = ref 0 in
  let depth = ref 0 in
  let emit ~kind ~name ~value =
    sink "tok"
      [|
        Value.Int doc;
        Value.Int !seq;
        Value.Text kind;
        (match name with Some n -> Value.Text n | None -> Value.Null);
        (match value with Some v -> Value.Text v | None -> Value.Null);
        Value.Int !depth;
      |];
    incr seq
  in
  Sax.iter
    (fun event ->
      match event with
      | Sax.Start_element { tag; attrs } ->
        incr depth;
        emit ~kind:"s" ~name:(Some tag) ~value:None;
        List.iter
          (fun { Dom.attr_name; attr_value } ->
            emit ~kind:"a" ~name:(Some attr_name) ~value:(Some attr_value))
          attrs
      | Sax.End_element tag ->
        emit ~kind:"e" ~name:(Some tag) ~value:None;
        decr depth
      | Sax.Characters s -> emit ~kind:"t" ~name:None ~value:(Some s)
      | Sax.Comment_event s -> emit ~kind:"c" ~name:None ~value:(Some s)
      | Sax.Pi_event { target; data } -> emit ~kind:"p" ~name:(Some target) ~value:(Some data))
    (Index.to_document ix)

let shred_bulk session ~doc ix = shred_into (Db.session_insert session) ~doc ix

let stream_query ~doc =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select
          ~from:[ Sb.from "tok" ]
          ~where:[ Sb.eq (Sb.col "doc") (Sb.pint b doc) ]
          ~order_by:[ Sb.asc (Sb.col "seq") ]
          (List.map (fun c -> Sb.proj (Sb.col c)) [ "kind"; "name"; "value" ]);
      ]
  in
  (q, Sb.params b)

let reconstruct db ~doc =
  let q, params = stream_query ~doc in
  let r = query_built db ~params q in
  if r.Relstore.Executor.rows = [] then err "document %d is not stored" doc;
  (* rebuild the event list; attribute tokens fold into their start event *)
  let events = ref [] in
  List.iter
    (fun row ->
      let name = match row.(1) with Value.Null -> "" | v -> Value.to_string v in
      let value = match row.(2) with Value.Null -> "" | v -> Value.to_string v in
      match Value.to_string row.(0) with
      | "s" -> events := Sax.Start_element { tag = name; attrs = [] } :: !events
      | "a" -> (
        match !events with
        | Sax.Start_element { tag; attrs } :: rest ->
          events := Sax.Start_element { tag; attrs = attrs @ [ Dom.attr name value ] } :: rest
        | _ -> err "attribute token outside a start tag")
      | "e" -> events := Sax.End_element name :: !events
      | "t" -> events := Sax.Characters value :: !events
      | "c" -> events := Sax.Comment_event value :: !events
      | "p" -> events := Sax.Pi_event { target = name; data = value } :: !events
      | k -> err "unknown token kind %s" k)
    r.Relstore.Executor.rows;
  Sax.of_list (List.rev !events)

let query db ~doc path =
  let r = fallback_query ~reconstruct db ~doc path in
  let q, _ = stream_query ~doc in
  { r with sql = [ Relstore.Sql_ast.query_to_string q ] }

let mapping : Mapping.mapping =
  (module struct
    let id = id
    let description = description
    let create_schema = create_schema
    let create_indexes = create_indexes
    let shred_bulk = shred_bulk
    let reconstruct = reconstruct
    let query = query
  end)
