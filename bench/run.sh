#!/usr/bin/env bash
# Builds popbench from this checkout and runs it with the given arguments:
#
#   bash bench/run.sh --workload gs18-exact-64k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# other file the Go toolchain or a traced run writes stay in .bench_build/
# at the root; nothing is fetched (the benchmark needs no module outside the
# repository).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/popbench" ./popbench)
exec "$out/popbench" "$@"
