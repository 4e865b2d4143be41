#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload maxssn --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced run's spans all live under
# .bench_build/ at the repository root; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go -C "$root/bench" build -o "$build/ssnbench" ./ssnbench
cd "$root"
exec "$build/ssnbench" "$@"
