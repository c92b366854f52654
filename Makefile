# Standard-library-only Go project; these targets are conveniences over the
# go tool, not a build system.

GO ?= go

.PHONY: all build test race vet check fuzz bench benchmark fmt clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the gate this repository holds itself to (see scripts/check.sh).
check:
	./scripts/check.sh

# fuzz runs every fuzz target scripts/fuzz.sh discovers for FUZZTIME each
# (default 30s here; CI uses 10s via check.sh).
FUZZTIME ?= 30s
fuzz:
	FUZZTIME=$(FUZZTIME) ./scripts/fuzz.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# benchmark runs the one end-to-end fleet benchmark BENCHMARK.json declares
# (see benchmark/README.md).
benchmark:
	bash benchmark/run.sh

fmt:
	gofmt -l -w .

clean:
	$(GO) clean ./...
