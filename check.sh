#!/bin/sh
# Repo health check: build everything (dev profile = warnings as errors),
# run the test suite, build the bench harness and examples, smoke-run every
# in-process experiment (results under _build/bench/; any failed answer
# check fails the run), exercise durable load / injected-crash
# recovery end to end, round-trip trace exports through the validator
# (including a durable open traced through recovery), scrape the embedded
# observability server's /healthz and /metrics, drive the pooled data
# plane with concurrent POST /query connections and a mid-flight POST
# /load, lint the Prometheus exposition, self-test the data-plane
# benchmark, gate on the static analyzer (the full Q1-Q12 workload must
# lint clean under every scheme), and prove the smoke run left the
# committed reference results (BENCH_*.json) untouched.
set -eux

dune build @all
dune runtest
# data-plane benchmark self-test: the answer oracle, percentile rule, seed
# determinism and compare verdicts (builds perfbench; no server timing)
python3 perfbench/run.py selftest
dune build bench/main.exe
dune build examples/
# every experiment at the smoke config; each result file carries the header
rm -rf _build/bench
dune exec bench/main.exe -- --smoke
test "$(ls _build/bench/BENCH_*.json | wc -l)" -eq 21
for f in _build/bench/BENCH_*.json; do
  for field in experiment mode scale repeat git_rev host_cores ocaml_version rows; do
    grep -q "\"$field\":" "$f"
  done
  grep -q '"mode": "smoke"' "$f"
done

# trace export -> validate round trip (parse/shred/plan/execute/reconstruct
# spans, checked well-nested by the exporter and re-checked from the JSON)
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bin/xmlstore_cli.exe -- generate auction --scale 0.02 > "$tmpdir/doc.xml"
# a larger document for the pooled data plane and the lint gate (below)
dune exec bin/xmlstore_cli.exe -- generate auction --scale 0.1 > "$tmpdir/lintdoc.xml"
for scheme in edge interval dewey; do
  dune exec bin/xmlstore_cli.exe -- trace export -s "$scheme" "$tmpdir/doc.xml" \
    --query "/site/people/person/name" --out "$tmpdir/trace-$scheme.json"
  dune exec bin/xmlstore_cli.exe -- trace validate "$tmpdir/trace-$scheme.json"
done

# Prometheus exposition (the CLI lints it internally and fails on problems)
dune exec bin/xmlstore_cli.exe -- stats --prometheus -s edge "$tmpdir/doc.xml" \
  --query "/site/people/person/name" > "$tmpdir/metrics.prom"
test -s "$tmpdir/metrics.prom"

# slow-query log end to end
dune exec bin/xmlstore_cli.exe -- slowlog -s edge "$tmpdir/doc.xml" \
  "/site/people/person/name" --threshold-ms 0 | grep -q "slow quer"

# load CLI: reports the rows one bulk session stored
dune exec bin/xmlstore_cli.exe -- load -s edge "$tmpdir/doc.xml" | grep -q "rows:"

# durability end to end: load into a durable directory, query it back
# through recovery, then crash a second load mid-checkpoint with an
# injected failpoint and verify recovery still answers correctly
dune exec bin/xmlstore_cli.exe -- load -s interval "$tmpdir/doc.xml" \
  --durable "$tmpdir/dstore" | grep -q "directory:"
dune exec bin/xmlstore_cli.exe -- query-saved --durable "$tmpdir/dstore" \
  "/site/people/person/name" > "$tmpdir/durable-names.txt"
test -s "$tmpdir/durable-names.txt"
dune exec bin/xmlstore_cli.exe -- load -s interval "$tmpdir/doc.xml" \
  --durable "$tmpdir/cstore" --crash-at checkpoint.current \
  | grep -q "injected crash at checkpoint.current"
dune exec bin/xmlstore_cli.exe -- recover "$tmpdir/cstore" | grep -q "redone"
dune exec bin/xmlstore_cli.exe -- query-saved --durable "$tmpdir/cstore" \
  "/site/people/person/name" | diff - "$tmpdir/durable-names.txt"
dune exec bin/xmlstore_cli.exe -- checkpoint "$tmpdir/cstore" | grep -q "checkpointed"

# recovery observability: a crashed store opened under tracing must show
# the recovery span tree (redo pass under the recovery root), well nested
dune exec bin/xmlstore_cli.exe -- load -s interval "$tmpdir/doc.xml" \
  --durable "$tmpdir/tstore" --crash-at checkpoint.current \
  | grep -q "injected crash at checkpoint.current"
dune exec bin/xmlstore_cli.exe -- trace export --durable "$tmpdir/tstore" \
  "$tmpdir/doc.xml" --query "/site/people/person/name" \
  --out "$tmpdir/trace-recovery.json"
dune exec bin/xmlstore_cli.exe -- trace validate "$tmpdir/trace-recovery.json"
grep -q "db.open_durable" "$tmpdir/trace-recovery.json"
grep -q "recovery.redo" "$tmpdir/trace-recovery.json"

# observability server: serve a durable store on an ephemeral port, scrape
# the health and metrics endpoints, and check the storage-telemetry series
dune exec bin/xmlstore_cli.exe -- serve "$tmpdir/dstore" --durable --port 0 \
  > "$tmpdir/serve.out" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$tmpdir/serve.out")
  [ -n "$port" ] && break
  sleep 0.1
done
test -n "$port"
curl -fsS "http://127.0.0.1:$port/healthz" | grep -q '"ok":true'
curl -fsS "http://127.0.0.1:$port/metrics" > "$tmpdir/serve-metrics.prom"
grep -q "xmlstore_db_wal_append_total" "$tmpdir/serve-metrics.prom"
grep -q "xmlstore_db_recovery_redo_records_total" "$tmpdir/serve-metrics.prom"
grep -q "xmlstore_buffer_pool_read_total" "$tmpdir/serve-metrics.prom"
curl -fsS "http://127.0.0.1:$port/stats" | grep -q '"scheme"'
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# parallel data plane: serve the pooled store on 2 reader domains, fire
# four concurrent keep-alive connections at it, each sending a child path
# and then Q7 (a '//' path with a predicate, answered by the frontier
# evaluator) as POST /query (every response must be 200 with
# byte-identical answers per query), then commit a load through POST
# /load and query the new document back through a replica
dune exec bin/xmlstore_cli.exe -- serve --scheme edge "$tmpdir/lintdoc.xml" \
  --port 0 --readers 2 > "$tmpdir/pserve.out" &
pserve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$tmpdir/pserve.out")
  [ -n "$port" ] && break
  sleep 0.1
done
test -n "$port"
qpids=""
for i in 1 2 3 4; do
  curl -fsS -X POST "http://127.0.0.1:$port/query" \
    -d '{"doc": 0, "xpath": "/site/people/person/name"}' -o "$tmpdir/pq$i.json" \
    --next -fsS -X POST "http://127.0.0.1:$port/query" \
    -d "{\"doc\": 0, \"xpath\": \"//item[location='United States']/name\"}" \
    -o "$tmpdir/pq7-$i.json" &
  qpids="$qpids $!"
done
for p in $qpids; do wait "$p"; done
for i in 2 3 4; do
  diff "$tmpdir/pq1.json" "$tmpdir/pq$i.json"
  diff "$tmpdir/pq7-1.json" "$tmpdir/pq7-$i.json"
done
grep -q '"count"' "$tmpdir/pq1.json"
grep -q '"count":[1-9]' "$tmpdir/pq7-1.json"
curl -fsS -X POST "http://127.0.0.1:$port/load" \
  --data-binary @"$tmpdir/lintdoc.xml" > "$tmpdir/pload.json"
grep -q '"doc"' "$tmpdir/pload.json"
grep -q '"epoch"' "$tmpdir/pload.json"
# the freshly loaded document (a copy of doc 0) answers identically
# through a replica (modulo its doc id and the advanced epoch)
curl -fsS -X POST "http://127.0.0.1:$port/query?doc=1&xpath=%2Fsite%2Fpeople%2Fperson%2Fname" \
  > "$tmpdir/pq-new.json"
grep -q '"count"' "$tmpdir/pq-new.json"
norm='s/"doc":[0-9]*/"doc":N/; s/"epoch":[0-9]*/"epoch":N/'
sed "$norm" "$tmpdir/pq-new.json" > "$tmpdir/pq-new.norm"
sed "$norm" "$tmpdir/pq1.json" | diff - "$tmpdir/pq-new.norm"
curl -fsS "http://127.0.0.1:$port/pool" | grep -q '"readers"'
kill "$pserve_pid" 2>/dev/null || true
wait "$pserve_pid" 2>/dev/null || true

# lint gate: the full Q1-Q12 workload must be clean (no warning-or-worse
# diagnostic) under every scheme, inline included via the workload DTD;
# the --json run additionally round-trips the report through Obskit.Json
# (the CLI refuses to print JSON that does not parse back). The gate needs
# a document where every queried region is populated — at the 0.02 smoke
# scale the generator emits no europe items, and the analyzer correctly
# flags Q1 as statically empty on such a document.
dune exec bin/xmlstore_cli.exe -- generate auction --dtd > "$tmpdir/auction.dtd"
dune exec bin/xmlstore_cli.exe -- lint --all-schemes --workload --strict \
  --dtd "$tmpdir/auction.dtd" "$tmpdir/lintdoc.xml"
dune exec bin/xmlstore_cli.exe -- lint --all-schemes --workload --strict --json \
  --dtd "$tmpdir/auction.dtd" "$tmpdir/lintdoc.xml" > "$tmpdir/lint.json"
test -s "$tmpdir/lint.json"

# srclint gate: the tree's own sources must be clean under the
# source-level analyzer — domain-safety (module-level mutable state vs
# the srclint_allow.sexp worklist), resource discipline (fd leaks,
# catch-all handlers, EINTR), and telemetry drift (emitted series vs
# declare_storage_series vs DESIGN.md). Info findings (the DS001
# inventory) pass; any Warning or Error fails. The --json run
# round-trips the report through Obskit.Json before printing.
dune build @srclint
dune exec bin/srclint_cli.exe -- --strict --json lib bin > "$tmpdir/srclint.json"
test -s "$tmpdir/srclint.json"
grep -q '"findings"' "$tmpdir/srclint.json"

# a smoke run never overwrites the committed reference results
git diff --exit-code -- 'BENCH_*.json'

echo "check.sh: all green"
