#!/usr/bin/env bash
# Overload drill, run by CI after a build (docs/TESTING.md
# "Overload drill"):
#  1. generate a small synthetic big-schema table,
#  2. start 2 `viewseeker serve` workers (admission control on by
#     default, simulated service time so the drill saturates
#     deterministically even on fast CI machines) behind one
#     `viewseeker route` front-end,
#  3. replay workloads/degradation_drill.json through the router with
#     per-request deadlines, and
#  4. assert the overload contract:
#       - zero 5xx / transport errors (overload must shed honestly), and
#       - 504s (deadline-expired) under half of all requests.
#
# Usage: tools/overload_smoke.sh <build-dir> [base-port]
# Workers listen on base-port+1 .. base-port+2, the router on base-port.
set -euo pipefail

BUILD_DIR="${1:?usage: overload_smoke.sh <build-dir> [base-port]}"
BASE_PORT="${2:-18420}"
WORK_DIR="$(mktemp -d)"
WORKER_PIDS=(0 0)

cleanup() {
  for pid in "${ROUTER_PID:-0}" "${WORKER_PIDS[@]}"; do
    [ "$pid" -gt 0 ] 2>/dev/null && kill "$pid" 2>/dev/null || true
  done
  # Let the processes finish flushing durability files before removing
  # the directory, or rm races their writes.
  wait 2>/dev/null || true
  rm -rf "$WORK_DIR" 2>/dev/null || true
}
trap cleanup EXIT

VIEWSEEKER="$BUILD_DIR/tools/viewseeker"
WORKBENCH="$BUILD_DIR/tools/workbench"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
SPEC="$REPO_DIR/workloads/degradation_drill.json"
TABLE="$WORK_DIR/bench.vst"
ROUTER="http://127.0.0.1:$BASE_PORT"

# Pulls an integer field out of a flat JSON report ("key": 123).
json_int() { grep -o "\"$2\": *[0-9]*" "$1" | head -1 | grep -o '[0-9]*$'; }

worker_port() { echo $((BASE_PORT + 1 + $1)); }

start_worker() {
  local i="$1"
  "$VIEWSEEKER" serve --table="$TABLE" --port="$(worker_port "$i")" \
      --shard-name="shard$i" --durability-dir="$WORK_DIR/shard$i" \
      --no-fsync --max-sessions=128 \
      --workers=64 --simulate-service-ms=50 --simulate-cores=1 \
      >>"$WORK_DIR/shard$i.log" 2>&1 &
  WORKER_PIDS[$i]=$!
}

echo "== generate table (big-schema, small row count so cold builds are"
echo "   fast — the drill saturates on concurrency, not on build time)"
"$VIEWSEEKER" generate --dataset=big --rows=2000 --seed=99 --out="$TABLE"

echo "== start 2 workers (admission on, simulated 2-core service) + router"
SHARDS=""
for i in 0 1; do
  start_worker "$i"
  SHARDS+="${SHARDS:+,}shard$i=127.0.0.1:$(worker_port "$i")"
done
"$VIEWSEEKER" route --port="$BASE_PORT" --shards="$SHARDS" --workers=80 \
    --probe-interval=0.5 --eject-after=3 --forward-timeout=30 \
    >"$WORK_DIR/router.log" 2>&1 &
ROUTER_PID=$!

for i in $(seq 1 50); do
  if curl -sf "$ROUTER/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router died during startup"; cat "$WORK_DIR/router.log"; exit 1
  fi
  sleep 0.2
done
curl -sf "$ROUTER/healthz" | grep -q '"status":"ok"' \
  || { echo "cluster not healthy"; exit 1; }

echo "== replay degradation_drill with 2s per-request deadlines"
RC=0
"$WORKBENCH" --spec="$SPEC" --port="$BASE_PORT" --require-shards=2 \
    --deadline-ms=2000 --json-out="$WORK_DIR/report.json" || RC=$?
echo "== machine-readable report"
cat "$WORK_DIR/report.json"
if [ "$RC" -ne 0 ]; then
  echo "workbench verdict: FAIL (exit $RC)"
  echo "== router log tail"; tail -20 "$WORK_DIR/router.log"
  exit "$RC"
fi

REQUESTS=$(json_int "$WORK_DIR/report.json" requests)
ERRORS=$(json_int "$WORK_DIR/report.json" errors)
EXPIRED=$(json_int "$WORK_DIR/report.json" deadline_expired)

echo "== overload contract: requests=$REQUESTS errors=$ERRORS" \
     "deadline_expired=$EXPIRED"
[ "$ERRORS" -eq 0 ] \
  || { echo "FAIL: $ERRORS protocol errors (5xx/transport) under overload"; exit 1; }
# 504s are honest backpressure, but if most of the traffic expired the
# drill was mis-sized, not resilient.
[ $((EXPIRED * 2)) -lt "$REQUESTS" ] \
  || { echo "FAIL: $EXPIRED of $REQUESTS requests deadline-expired"; exit 1; }

echo "overload smoke OK: saturated without 5xx, 504s bounded"
