#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-app --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, workload stores, spans) goes under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go tool keeps its build cache, module cache, work files, settings
# and usage counters under these; all of them stay inside .bench_build/.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
