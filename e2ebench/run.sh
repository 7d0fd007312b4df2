#!/usr/bin/env bash
# Builds the benchmark and geniex-serve from this checkout, then runs
# the benchmark with the given arguments (see e2ebench/README.md):
#
#   bash e2ebench/run.sh --workload forward-surrogate --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product and Go cache
# lives under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail

[ -f go.mod ] && [ -d cmd/geniex-serve ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

go build -o "$out/geniex-serve" ./cmd/geniex-serve >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -server "$out/geniex-serve" "$@"
