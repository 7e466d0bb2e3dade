#!/bin/sh
# Benchmark regression gate over the scheduler, run-cache, placement,
# run-key, predictor, cache and trace-decode micro-benchmarks (the paths
# every simulation request crosses).
#
# Runs `go test -bench . -benchmem -count $BENCH_COUNT` (default 5), takes
# the per-benchmark MEDIAN ns/op, B/op and allocs/op, writes them to
# BENCH_<sha>.json, and compares against scripts/bench_baseline.json:
#
#   - allocs/op and B/op may each grow at most BENCH_ALLOC_TOLERANCE %
#     (default 15). Allocation counts and bytes are deterministic and
#     machine-independent, so this is the tight gate: a new per-job or
#     per-request allocation, or a fatter table, fails CI on any host.
#   - ns/op may grow at most BENCH_NS_TOLERANCE % (default 75). Wall time
#     on shared CI hosts is noisy, so by default this only catches
#     catastrophic slowdowns; tighten locally (BENCH_NS_TOLERANCE=15) when
#     hunting a time regression on a quiet machine.
#
# Improvements never fail the gate; refresh the baseline when they stick.
# A benchmark added or removed without updating the baseline fails, so the
# baseline cannot silently rot.
#
# Usage:
#   scripts/benchdiff.sh            run benchmarks and compare to baseline
#   scripts/benchdiff.sh -update    run benchmarks and rewrite the baseline
set -eu
cd "$(dirname "$0")/.."

PKGS="./internal/sched ./internal/runcache ./internal/core ./internal/ring ./internal/workload ./internal/config ./internal/server ./internal/bpred ./internal/cache ./internal/trace"
COUNT="${BENCH_COUNT:-5}"
NS_TOL="${BENCH_NS_TOLERANCE:-75}"
ALLOC_TOL="${BENCH_ALLOC_TOLERANCE:-15}"
BASELINE="scripts/bench_baseline.json"

mode=check
if [ "${1:-}" = "-update" ]; then
  mode=update
fi

sha="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
out="BENCH_${sha}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "benchdiff: $COUNT runs of $PKGS" >&2
go test -run='^$' -bench=. -benchmem -count="$COUNT" $PKGS >"$raw"

# Portable awk (no gawk extensions): medians via insertion sort.
awk -v sha="$sha" -v count="$COUNT" '
  /^pkg: / { pkg = $2; sub(/^.*\//, "", pkg); next }
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    full = pkg "/" name
    ns = ""; allocs = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op") ns = $(i - 1)
      if ($i == "B/op") bytes = $(i - 1)
      if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "" || allocs == "" || bytes == "") next
    if (!(full in seen)) { order[++n] = full; seen[full] = 1 }
    nsv[full] = nsv[full] " " ns
    av[full] = av[full] " " allocs
    bv[full] = bv[full] " " bytes
  }
  function median(str,    a, m, i, j, v) {
    m = split(str, a, " ")
    for (i = 2; i <= m; i++) {
      v = a[i] + 0
      for (j = i - 1; j >= 1 && a[j] + 0 > v; j--) a[j + 1] = a[j]
      a[j + 1] = v
    }
    return a[int((m + 1) / 2)] + 0
  }
  END {
    printf "{\n  \"commit\": \"%s\",\n  \"count\": %d,\n  \"benchmarks\": [\n", sha, count
    for (i = 1; i <= n; i++) {
      f = order[i]
      printf "    {\"name\":\"%s\",\"ns_per_op\":%g,\"allocs_per_op\":%g,\"bytes_per_op\":%d}%s\n", \
        f, median(nsv[f]), median(av[f]), median(bv[f]), (i < n ? "," : "")
    }
    printf "  ]\n}\n"
  }
' "$raw" >"$out"
echo "benchdiff: wrote $out" >&2

if [ "$mode" = update ]; then
  cp "$out" "$BASELINE"
  echo "benchdiff: baseline updated: $BASELINE" >&2
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "benchdiff: no $BASELINE; create it with scripts/benchdiff.sh -update" >&2
  exit 1
fi

# Each benchmark is one line of controlled JSON; split on double quotes:
# q[4] is the name, q[7] is ":<ns>,", q[9] is ":<allocs>," and q[11] is
# ":<bytes>}...".
if awk -v ns_tol="$NS_TOL" -v alloc_tol="$ALLOC_TOL" -v baseline="$BASELINE" '
  function num(s,    t) { t = s; gsub(/[^0-9.eE+-]/, "", t); return t + 0 }
  function grow(base, cur) { return base > 0 ? (cur - base) * 100 / base : (cur > 0 ? 100 : 0) }
  FNR == 1 { file++ }
  /"name":/ {
    split($0, q, "\"")
    name = q[4]
    if (file == 1) {
      bns[name] = num(q[7]); ba[name] = num(q[9]); bb[name] = num(q[11]); inbase[name] = 1; border[++bn] = name
    } else {
      cns[name] = num(q[7]); ca[name] = num(q[9]); cb[name] = num(q[11]); incur[name] = 1; corder[++cn] = name
    }
  }
  END {
    fail = 0
    for (i = 1; i <= bn; i++) {
      name = border[i]
      if (!(name in incur)) {
        printf "FAIL %s: in baseline but not in this run (removed? update %s)\n", name, baseline
        fail = 1
        continue
      }
      dns = (cns[name] - bns[name]) * 100 / bns[name]
      da = grow(ba[name], ca[name])
      db = grow(bb[name], cb[name])
      status = "ok  "
      if (da > alloc_tol || db > alloc_tol || dns > ns_tol) { status = "FAIL"; fail = 1 }
      printf "%s %-42s ns/op %9g -> %9g (%+7.1f%%, tol +%g%%)   allocs/op %4g -> %4g (%+7.1f%%)   B/op %9d -> %9d (%+7.1f%%, tol +%g%%)\n", \
        status, name, bns[name], cns[name], dns, ns_tol, ba[name], ca[name], da, bb[name], cb[name], db, alloc_tol
    }
    for (i = 1; i <= cn; i++) {
      name = corder[i]
      if (!(name in inbase)) {
        printf "FAIL %s: new benchmark missing from baseline (run scripts/benchdiff.sh -update)\n", name
        fail = 1
      }
    }
    exit fail
  }
' "$BASELINE" "$out"; then
  echo "benchdiff: PASS (vs $BASELINE commit $(awk -F'"' '/"commit"/ {print $4}' "$BASELINE"))" >&2
else
  echo "benchdiff: FAIL; see table above. If the change is intended, refresh with scripts/benchdiff.sh -update" >&2
  exit 1
fi
