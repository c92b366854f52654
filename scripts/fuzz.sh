#!/bin/sh
# Runs every fuzz target in the module for FUZZTIME each (default 10s, the CI
# budget). The targets are discovered, not listed: a new Fuzz function is
# picked up by `make fuzz` and scripts/check.sh without editing either.
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

found=0
for pkg in $(go list ./...); do
    # `go test -list` prints the matching names, then an "ok" summary line.
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
        found=$((found + 1))
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg"
    done
done
if [ "$found" -eq 0 ]; then
    echo "fuzz.sh: no fuzz targets found" >&2
    exit 1
fi
