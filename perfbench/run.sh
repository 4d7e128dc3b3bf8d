#!/usr/bin/env bash
# Builds the benchmark and cmd/commtm-bench from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload seeds --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/commtm-bench" ./cmd/commtm-bench)
exec "$build/perfbench" -root "$root" -cli "$build/commtm-bench" "$@"
