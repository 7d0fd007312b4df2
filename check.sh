#!/bin/sh
# Full repository gate: formatting, vet, build, tests, the race
# detector on the concurrency-bearing solver packages, and the
# end-to-end smokes. Mirrors `make check` for environments without
# make.
set -eux

# The trace smoke leaves trace_smoke.json behind when a later step (or
# the smoke itself) fails; clean it up on every exit path.
trap 'rm -f trace_smoke.json' EXIT

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
go test -race -short ./internal/xbar ./internal/funcsim ./internal/hwtrain ./internal/linalg ./internal/obs ./internal/serve
go run ./scripts/obssmoke
go run ./cmd/funcsim-run -mode ideal -size 8 -train 24 -test 6 \
	-epochs 1 -channels 4 -probe-rate 8 -trace-out trace_smoke.json
go run ./scripts/tracecheck trace_smoke.json
go run ./scripts/servesmoke
go run ./scripts/sweepsmoke
go run ./scripts/calibsmoke
go run ./scripts/loadsmoke
# Benchmark correctness smoke: every e2ebench workload's output checks
# must pass with no failed call (see `make bench-smoke`).
for w in forward-surrogate forward-circuit serve-open; do
	line=$(bash e2ebench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 1 | tail -n 1)
	case "$line" in
	*'"correct":true'*'"failed":0,'*) ;;
	*) echo "bench-smoke $w: $line"; exit 1 ;;
	esac
done
go run ./scripts/obscatalog
# Tier names resolve only through the funcsim model registry: no Go
# file may switch on tier-name strings.
if grep -rn --include='*.go' -E 'case "(ideal|analytical|geniex|geniex-adaptive|circuit|fastcircuit)"' .; then
	echo "tier-name string switch found; use funcsim.ModelByName"; exit 1
fi
