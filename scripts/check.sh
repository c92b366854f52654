#!/bin/sh
# The repository's verification gate: formatting, static analysis, build,
# the full test suite under the race detector, a short fuzz smoke per fuzz
# target, and a coverage floor. Run from the repo root (or via `make check`).
#
# FUZZTIME=0 skips the fuzz smoke (local iteration); the default 10s per
# target matches the CI budget.
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
# Statement-coverage floor for the -short suite. Raise it when coverage
# grows; never lower it to make a failing change pass.
COVER_FLOOR=78

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
# -shuffle randomises test order so inter-test state dependencies surface;
# a failure prints the seed to reproduce the order.
go test -race -shuffle=on ./...

echo "== bench smoke (continuous-batching kernels compile and run)"
go test ./internal/neural/ -run XXX -benchtime 100ms \
    -bench 'BenchmarkStepParallel|BenchmarkEngineMixed' >/dev/null

echo "== docs freshness (exported identifiers documented and referenced, README flag tables match -h)"
go test -run '^(TestDocGate|TestNoUnreferencedExports|TestReadmeFlagTables)$' -count=1 .

echo "== coverage floor (${COVER_FLOOR}%)"
go test -short -count=1 -coverprofile=coverage.out ./... >/dev/null
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
rm -f coverage.out
echo "total statement coverage: ${total}%"
awk -v got="$total" -v floor="$COVER_FLOOR" 'BEGIN {
    if (got + 0 < floor + 0) {
        printf "coverage %.1f%% is below the %.0f%% floor\n", got, floor > "/dev/stderr"
        exit 1
    }
}'

if [ "$FUZZTIME" != "0" ]; then
    echo "== fuzz smoke (${FUZZTIME} per target)"
    FUZZTIME="$FUZZTIME" ./scripts/fuzz.sh
fi

echo "OK"
