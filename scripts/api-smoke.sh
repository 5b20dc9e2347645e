#!/usr/bin/env bash
# api-smoke.sh — end-to-end smoke test of scrutinizerd's /v1 surface.
#
# Boots the daemon, then drives the README walkthrough with curl:
# create a corpus, upload its relations as CSV, train a verifier from an
# annotated document, execute a batch run, open an interactive session
# run and answer its first question, check /healthz tenant stats, and
# scrape /metrics, validating the Prometheus exposition (typed families,
# no duplicate series, live samples from every serving layer).
# Any non-2xx response or an empty verification report fails the script.
#
# Usage: scripts/api-smoke.sh   (from the repository root; needs curl + jq)

set -euo pipefail

for tool in curl jq go; do
  command -v "$tool" >/dev/null || { echo "api-smoke: missing $tool" >&2; exit 1; }
done

ADDR="127.0.0.1:8321"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "api-smoke: building scrutinizerd and generating a world"
go build -o "$WORK/scrutinizerd" ./cmd/scrutinizerd
go run ./cmd/datagen -out "$WORK/world" -seed 7 >/dev/null

# -data-dir makes the store layer live so its metrics (journal appends,
# fsync latency) show up in the /metrics check below.
"$WORK/scrutinizerd" -addr "$ADDR" -claims 40 -data-dir "$WORK/data" >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 60); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "api-smoke: daemon died during startup" >&2; cat "$WORK/daemon.log" >&2; exit 1
  fi
  sleep 0.5
  [ "$i" = 60 ] && { echo "api-smoke: daemon never became healthy" >&2; exit 1; }
done
echo "api-smoke: daemon healthy on $BASE"

# req METHOD PATH [curl-args...] — fails the script on any non-2xx.
req() {
  local method="$1" path="$2"; shift 2
  curl -fsS -X "$method" "$BASE$path" "$@" || {
    echo "api-smoke: $method $path failed" >&2; exit 1
  }
}

# 1. Create a corpus.
req POST /v1/corpora -H 'Content-Type: application/json' -d '{"id": "iea"}' | jq -e '.id == "iea"' >/dev/null
echo "api-smoke: corpus iea created"

# 2. Upload every generated relation as raw CSV.
count=0
for f in "$WORK"/world/relations/*.csv; do
  name="$(basename "$f" .csv)"
  req PUT "/v1/corpora/iea/relations/$name" -H 'Content-Type: text/csv' --data-binary "@$f" >/dev/null
  count=$((count + 1))
done
req GET /v1/corpora/iea | jq -e --argjson n "$count" '.relations == $n' >/dev/null
echo "api-smoke: $count relations uploaded"

# 3. Train a verifier from the annotated document.
VID="$(req POST /v1/corpora/iea/verifiers -H 'Content-Type: application/json' \
  --data-binary "@$WORK/world/document.json" | jq -re '.id')"
req GET "/v1/verifiers/$VID" | jq -e '.trained_on > 0 and .model_generation > 0' >/dev/null
echo "api-smoke: verifier $VID trained"

# 4. Batch run: the report must cover every claim.
jq -n --slurpfile doc "$WORK/world/document.json" '{document: $doc[0], batch: 40}' >"$WORK/run.json"
req POST "/v1/verifiers/$VID/runs" -H 'Content-Type: application/json' \
  --data-binary "@$WORK/run.json" >"$WORK/report.json"
jq -e '.claims > 0 and (.outcomes | length) == .claims and (.correct + .incorrect + .skipped) == .claims' \
  "$WORK/report.json" >/dev/null || {
    echo "api-smoke: empty or inconsistent batch report:" >&2; jq . "$WORK/report.json" >&2; exit 1
  }
echo "api-smoke: batch run verified $(jq -r .claims "$WORK/report.json") claims" \
  "($(jq -r .correct "$WORK/report.json") correct, accuracy $(jq -r .accuracy "$WORK/report.json"))"

# 5. Interactive session run: create, poll questions, answer one, delete.
jq -n --slurpfile doc "$WORK/world/document.json" \
  '{document: $doc[0], mode: "session", batch: 10}' >"$WORK/session.json"
req POST "/v1/verifiers/$VID/runs" -H 'Content-Type: application/json' \
  --data-binary "@$WORK/session.json" >"$WORK/sess.json"
RUN_ID="$(jq -re '.id' "$WORK/sess.json")"
jq -e '(.questions | length) > 0' "$WORK/sess.json" >/dev/null
jq '{claim_id: .questions[0].claim_id, question_id: .questions[0].id,
     value: (.questions[0].options[0].value // ""), seconds: 2}' "$WORK/sess.json" >"$WORK/answer.json"
req POST "/v1/runs/$RUN_ID/answers" -H 'Content-Type: application/json' \
  --data-binary "@$WORK/answer.json" | jq -e '.accepted == 1' >/dev/null
req GET "/v1/runs/$RUN_ID" | jq -e '.answered == 1' >/dev/null
req DELETE "/v1/runs/$RUN_ID" >/dev/null
echo "api-smoke: interactive run $RUN_ID answered and deleted"

# 6. Tenant stats on /healthz.
req GET /healthz | jq -e --arg vid "$VID" \
  '.service.verifiers >= 1 and .service.per_verifier[$vid].runs_started >= 2 and .version != ""' >/dev/null
echo "api-smoke: healthz reports tenant load"

# 7. Metrics scrape: valid exposition text, every sample under a typed
# family, no duplicate series, and live series from each serving layer.
curl -fsS -D "$WORK/metrics.hdr" "$BASE/metrics" >"$WORK/metrics.txt"
grep -qi '^content-type: text/plain; version=0.0.4' "$WORK/metrics.hdr" || {
  echo "api-smoke: /metrics content-type wrong:" >&2; cat "$WORK/metrics.hdr" >&2; exit 1
}
awk '
  /^# TYPE / { if (NF != 4) { print "malformed TYPE: " $0; bad = 1 }
               if ($3 in type) { print "duplicate TYPE: " $3; bad = 1 }
               type[$3] = $4; next }
  /^# HELP / { next }
  /^#/       { print "unknown comment: " $0; bad = 1; next }
  /^$/       { print "blank line in exposition"; bad = 1; next }
  {
    series = $0; sub(/ [^ ]*$/, "", series)
    if (series in seen) { print "duplicate series: " series; bad = 1 }
    seen[series] = 1
    name = series; sub(/\{.*/, "", name)
    base = name; sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in type) && !(base in type && type[base] == "histogram")) {
      print "series without TYPE: " name; bad = 1
    }
    n++
  }
  END {
    if (n < 20) { print "only " n " series, want >= 20"; bad = 1 }
    exit bad
  }' "$WORK/metrics.txt" || {
    echo "api-smoke: /metrics exposition invalid" >&2; exit 1
  }
for series in \
  'scrutinizer_http_requests_total{route="v1/verifiers",code="200"}' \
  'scrutinizer_http_requests_total{route="v1/verifiers/runs",code="200"}' \
  scrutinizer_runs_started_total \
  scrutinizer_run_rounds_total \
  scrutinizer_sessions_created_total \
  scrutinizer_store_appends_total \
  'scrutinizer_querycache_hits_total{corpus="iea"}' \
  scrutinizer_go_goroutines; do
  grep -qF "$series" "$WORK/metrics.txt" || {
    echo "api-smoke: /metrics missing $series" >&2; exit 1
  }
done
echo "api-smoke: /metrics serves $(grep -cv '^#' "$WORK/metrics.txt") valid series"

echo "api-smoke: OK"
