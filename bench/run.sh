#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload fleet-1024 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artefact (Go build cache,
# binary, temporary files, trace output) stays under .bench_build, or under
# $CARGO_TARGET_DIR when that is set, so a checkout is the only place the
# benchmark reads or writes. The build fails, and the script exits non-zero
# without printing a result, when the repository's sources are missing.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/stbenchmark" .
cd "$root"
exec "$out/stbenchmark" "$@"
