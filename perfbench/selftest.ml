(* Self-tests for the benchmark's pure parts: the tail-percentile rule,
   seed determinism of documents and request streams, and that a wrong
   answer is counted as a failure. Exits non-zero on the first failed
   check. *)

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let percentile_rule () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  expect "p50 of 1..100 is 50" (Stats.percentile 50. xs = 50.);
  expect "p90 of 1..100 is 90" (Stats.percentile 90. xs = 90.);
  expect "p90 has 10 samples beyond it at n=100" (Stats.supports 90. 100);
  expect "p90 is refused at n=99 (9 beyond)" (not (Stats.supports 90. 99));
  expect "p99 needs 1000 samples" (Stats.supports 99. 1000 && not (Stats.supports 99. 999));
  expect "no tail percentile is supported at n=10" (not (Stats.supports 50. 10));
  expect "percentile ignores input order"
    (Stats.percentile 90. (List.rev xs) = Stats.percentile 90. xs);
  expect "the slowest 10% of 1..100 average 95.5" (Stats.tail_mean 10. xs = 95.5);
  expect "a tail of under one sample keeps the maximum"
    (Stats.tail_mean 10. [ 3.; 1.; 2. ] = 3.)

let fingerprint seed =
  let docs =
    List.map (fun (d : Inputs.doc) -> d.Inputs.xml)
      ((Inputs.grow_base seed :: Inputs.preload seed) @ Inputs.grow seed @ List.init 3 (Inputs.small seed))
  in
  let next = Inputs.query_stream seed ~docs:Inputs.preload_docs in
  let stream =
    List.init 200 (fun _ ->
        let d, (q : Xmlwork.Queries.query) = next () in
        Inputs.query_request d q.Xmlwork.Queries.xpath)
  in
  Digest.to_hex (Digest.string (String.concat "\x00" (docs @ stream)))

let determinism () =
  expect "one seed gives byte-identical documents and request streams"
    (String.equal (fingerprint 7) (fingerprint 7));
  expect "another seed gives other inputs" (not (String.equal (fingerprint 7) (fingerprint 8)));
  let next = Inputs.query_stream 7 ~docs:Inputs.preload_docs in
  let cycle = List.init (12 * Inputs.preload_docs) (fun _ -> next ()) in
  expect "every (document, query) pair appears once per cycle"
    (List.length (List.sort_uniq compare (List.map (fun (d, (q : Xmlwork.Queries.query)) -> (d, q.Xmlwork.Queries.qid)) cycle))
     = 12 * Inputs.preload_docs)

let planted_wrong_answer () =
  let doc = Inputs.auction ~seed:3 ~scale:0.05 in
  let oracle = [| Inputs.answers doc.Inputs.xml |] in
  let q = List.hd Xmlwork.Queries.auction_queries in
  let job = E2e.query_job oracle 0 q in
  let body values =
    Obskit.Json.to_string
      (Obskit.Json.Obj [ ("values", Obskit.Json.List (List.map (fun v -> Obskit.Json.Str v) values)) ])
  in
  let outcome values status =
    { E2e.job; sent = 0; finished = 1; resp = { Client.status; body = body values } }
  in
  let right = List.assoc q.Xmlwork.Queries.qid oracle.(0) in
  let good = List.init 9 (fun _ -> outcome right 200) in
  expect "oracle answers are non-empty for Q1" (right <> []);
  expect "correct answers count no failure" (E2e.failures good = []);
  expect "a planted wrong answer is one failure in ten"
    (List.length (E2e.failures (outcome ("planted" :: right) 200 :: good)) = 1);
  expect "a non-200 answer is a failure" (List.length (E2e.failures (outcome right 500 :: good)) = 1)

let run () =
  percentile_rule ();
  determinism ();
  planted_wrong_answer ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
