#!/usr/bin/env bash
# Smoke test for the serving subsystem, run by CI after a build:
#  1. generate a small table,
#  2. check that serve refuses the removed --spill-dir flag, then start
#     `viewseeker serve` on the table (wide events + SLO budget on),
#  3. assert X-Request-Id echo on both the success and the error path,
#  4. drive it with loadgen (8 concurrent simulated users, a few seconds),
#     including the per-endpoint SLO report,
#  5. validate /metrics with promcheck (Prometheus exposition well-formed,
#     histograms cumulative) and spot-check /statusz,
#  6. SIGTERM the server and require a clean drain + exit.
#
# Usage: tools/serve_smoke.sh <build-dir> [port]
set -euo pipefail

BUILD_DIR="${1:?usage: serve_smoke.sh <build-dir> [port]}"
PORT="${2:-18099}"
WORK_DIR="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK_DIR"' EXIT

VIEWSEEKER="$BUILD_DIR/tools/viewseeker"
LOADGEN="$BUILD_DIR/tools/loadgen"
PROMCHECK="$BUILD_DIR/tools/promcheck"
TABLE="$WORK_DIR/smoke.vst"

echo "== build info"
"$VIEWSEEKER" serve --build-info

echo "== generate table"
"$VIEWSEEKER" generate --dataset=diab --rows=2000 --out="$TABLE"

echo "== removed --spill-dir is refused at startup"
if timeout 10 "$VIEWSEEKER" serve --table="$TABLE" --port="$PORT" \
    --spill-dir="$WORK_DIR/spill" >"$WORK_DIR/spill.log" 2>&1; then
  echo "serve accepted --spill-dir"; cat "$WORK_DIR/spill.log"; exit 1
fi
grep -q -- "--durability-dir=$WORK_DIR/spill --no-fsync" "$WORK_DIR/spill.log" \
  || { echo "no migration hint"; cat "$WORK_DIR/spill.log"; exit 1; }

echo "== start server on port $PORT"
"$VIEWSEEKER" serve --table="$TABLE" --port="$PORT" --max-sessions=32 \
    --durability-dir="$WORK_DIR/durability" --no-fsync \
    --slo-ms=2000 --slow-request-ms=1000 \
    --wide-events-out="$WORK_DIR/wide.jsonl" --wide-event-sample=1 \
    >"$WORK_DIR/serve.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 50); do
  if curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server died during startup"; cat "$WORK_DIR/serve.log"; exit 1
  fi
  sleep 0.2
done
curl -sf "http://127.0.0.1:$PORT/healthz"
echo

echo "== request-id echo (success path)"
curl -sf -D "$WORK_DIR/ok_headers.txt" -H "X-Request-Id: smoke-ok-1" \
    "http://127.0.0.1:$PORT/healthz" >/dev/null
grep -qi "^x-request-id: smoke-ok-1" "$WORK_DIR/ok_headers.txt" \
  || { echo "X-Request-Id not echoed on success"; cat "$WORK_DIR/ok_headers.txt"; exit 1; }

echo "== request-id echo (error path)"
# A 404 must still carry the caller's id so failed requests are traceable.
curl -s -D "$WORK_DIR/err_headers.txt" -H "X-Request-Id: smoke-err-1" \
    "http://127.0.0.1:$PORT/no/such/route" >/dev/null
grep -q "^HTTP/1.1 404" "$WORK_DIR/err_headers.txt" \
  || { echo "expected 404"; cat "$WORK_DIR/err_headers.txt"; exit 1; }
grep -qi "^x-request-id: smoke-err-1" "$WORK_DIR/err_headers.txt" \
  || { echo "X-Request-Id not echoed on error"; cat "$WORK_DIR/err_headers.txt"; exit 1; }

echo "== loadgen: 8 users x 5s (SLO report on)"
"$LOADGEN" --port="$PORT" --users=8 --duration=5 --think-ms=5 \
    --slo-ms=2000 --worst=3 | tee "$WORK_DIR/loadgen.txt"
grep -q "per-endpoint latency" "$WORK_DIR/loadgen.txt" \
  || { echo "per-endpoint report missing"; exit 1; }
grep -q "^slo: PASS" "$WORK_DIR/loadgen.txt" \
  || { echo "loadgen SLO verdict missing or FAIL"; exit 1; }

echo "== healthz + metrics after load"
curl -sf "http://127.0.0.1:$PORT/healthz"
echo
# Capture before grepping: `grep -q` closing the pipe early would EPIPE
# curl and trip pipefail even when the metric is present.
curl -sf "http://127.0.0.1:$PORT/metrics" > "$WORK_DIR/metrics.txt"
grep -q "serve_requests" "$WORK_DIR/metrics.txt" \
  || { echo "serve_requests metric missing"; exit 1; }
grep -q "http_responses_200" "$WORK_DIR/metrics.txt" \
  || { echo "http_responses counter family missing"; exit 1; }
grep -q "viewseeker_build_info{" "$WORK_DIR/metrics.txt" \
  || { echo "build info gauge missing"; exit 1; }
grep -q "slo_window_p99_ms" "$WORK_DIR/metrics.txt" \
  || { echo "SLO window gauges missing"; exit 1; }

echo "== promcheck /metrics"
"$PROMCHECK" "$WORK_DIR/metrics.txt"

echo "== statusz"
curl -sf "http://127.0.0.1:$PORT/statusz" > "$WORK_DIR/statusz.json"
for field in '"build"' '"uptime_seconds"' '"inflight"' '"slo"' \
             '"matrix_cache"' '"durability"'; do
  grep -q "$field" "$WORK_DIR/statusz.json" \
    || { echo "statusz missing $field"; cat "$WORK_DIR/statusz.json"; exit 1; }
done

echo "== wide events"
[ -s "$WORK_DIR/wide.jsonl" ] \
  || { echo "wide event log empty"; exit 1; }
grep -q '"request_id"' "$WORK_DIR/wide.jsonl" \
  || { echo "wide events missing request_id"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$SERVER_PID"
for i in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not exit after SIGTERM"; cat "$WORK_DIR/serve.log"; exit 1
fi
wait "$SERVER_PID"; SERVER_STATUS=$?
SERVER_PID=""
grep -q "draining in-flight requests" "$WORK_DIR/serve.log" \
  || { echo "missing drain log line"; cat "$WORK_DIR/serve.log"; exit 1; }
[ "$SERVER_STATUS" -eq 0 ] \
  || { echo "server exited with $SERVER_STATUS"; cat "$WORK_DIR/serve.log"; exit 1; }

echo "== smoke OK"
