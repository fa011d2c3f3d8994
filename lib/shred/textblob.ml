(* The "smart file system" baseline the tutorial lists first: store each
   document as one serialized text blob. Loading is a single insert and
   reconstruction is a parse, but the relational engine can see nothing
   inside the blob — every query re-parses the document and evaluates
   natively. This is the strawman the shredding schemes justify themselves
   against. *)

module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module Db = Relstore.Database
module Value = Relstore.Value
module Sb = Relstore.Sql_build
open Mapping

let id = "textblob"
let description = "whole document as one text blob (parse on every query)"

let create_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE IF NOT EXISTS blob (doc INTEGER NOT NULL, xml TEXT NOT NULL)")

let create_indexes _db = ()

let shred_into emit ~doc ix =
  let text = Xmlkit.Serializer.to_string (Index.to_document ix) in
  emit "blob" [| Value.Int doc; Value.Text text |]

let shred_bulk session ~doc ix = shred_into (Db.session_insert session) ~doc ix

let blob_query ~doc =
  let b = Sb.binder () in
  let q =
    Sb.query
      [
        Sb.select
          ~from:[ Sb.from "blob" ]
          ~where:[ Sb.eq (Sb.col "doc") (Sb.pint b doc) ]
          [ Sb.proj (Sb.col "xml") ];
      ]
  in
  (q, Sb.params b)

let reconstruct db ~doc =
  let q, params = blob_query ~doc in
  let r = query_built db ~params q in
  match string_column r with
  | [ text ] -> Xmlkit.Parser.parse text
  | [] -> err "document %d is not stored" doc
  | _ -> err "document %d has multiple blobs" doc

let query db ~doc path =
  (* always a fallback by construction, but record the one SQL statement
     that fetched the blob *)
  let r = fallback_query ~reconstruct db ~doc path in
  let q, _ = blob_query ~doc in
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
