#!/usr/bin/env bash
# Builds sparcbench and the simd/simgw binaries it drives, then runs
# sparcbench with the given flags. Run from the repository root:
#
#   bash bench/run.sh --workload up-full --seed 1 --seconds 20 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build) under the
# checkout. The Go build cache, temp files and toolchain config are kept
# there too, and the toolchain is pinned to the local install with the
# module proxy off, so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$build/tmp"
(cd "$root/bench" && go build -o "$build/bin/" ./cmd/sparcbench sparc64v/cmd/simd sparc64v/cmd/simgw)
cd "$root"
export SPARCBENCH_BIN="$build/bin"
exec "$build/bin/sparcbench" "$@"
