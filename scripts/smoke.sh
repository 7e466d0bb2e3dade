#!/usr/bin/env bash
# Smoke-test the simd HTTP service end to end: boot the daemon against a
# fresh cache directory, run the same simulation twice, and prove via
# /metrics that the second request was served from the content-addressed
# cache. Finishes with a SIGINT to exercise the graceful drain. Used by
# `make smoke` and the CI smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:18964}"
DIR="$(mktemp -d)"
LOG="$DIR/simd.log"
PID=""
cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -INT "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/simd" ./cmd/simd
"$DIR/simd" -addr "$ADDR" -cache-dir "$DIR/cache" -workers 2 2>"$LOG" &
PID=$!

up=""
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then up=1; break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "smoke: simd exited during startup:" >&2; cat "$LOG" >&2; exit 1
  fi
  sleep 0.1
done
[ -n "$up" ] || { echo "smoke: simd never became healthy" >&2; cat "$LOG" >&2; exit 1; }

BODY='{"workload":"specint95","insts":50000,"seed":7}'
R1="$(curl -fsS -d "$BODY" "http://$ADDR/v1/run")"
R2="$(curl -fsS -d "$BODY" "http://$ADDR/v1/run")"

echo "$R1" | grep -q '"cache": "miss"' || { echo "smoke: first run was not a miss: $R1" >&2; exit 1; }
echo "$R2" | grep -q '"cache": "hit"' || { echo "smoke: second run was not a cache hit: $R2" >&2; exit 1; }

# Apart from the cache marker, the cached response must be byte-identical
# to the simulated one.
if [ "$(echo "$R1" | grep -v '"cache"')" != "$(echo "$R2" | grep -v '"cache"')" ]; then
  echo "smoke: cached response differs from simulated response" >&2
  diff <(echo "$R1") <(echo "$R2") >&2 || true
  exit 1
fi

# The page is the obs registry alone: the server's request and cache
# series, plus the process-wide simulation meter from internal/core. Each
# wanted line must match a whole exposition line.
METRICS="$(curl -fsS "http://$ADDR/metrics")"
for want in \
  'sparc64v_cache_hits_total{tier="memory"} 1' \
  'sparc64v_cache_misses_total 1' \
  'sparc64v_requests_total{endpoint="run"} 2' \
  'sparc64v_requests_total{endpoint="estimate"} 0' \
  'sparc64v_rejected_total 0' \
  'sparc64v_inflight_runs 0' \
  'sparc64v_simulated_runs_total 1'; do
  grep -qxF "$want" <<<"$METRICS" || {
    echo "smoke: /metrics missing '$want':" >&2; echo "$METRICS" >&2; exit 1
  }
done

# Graceful drain: SIGINT must exit cleanly.
kill -INT "$PID"
if ! wait "$PID"; then
  echo "smoke: simd exited non-zero on SIGINT:" >&2; cat "$LOG" >&2; exit 1
fi
PID=""

echo "smoke: OK (miss -> hit, byte-identical stats, metrics consistent, clean drain)"
