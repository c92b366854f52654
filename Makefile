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

# fuzz runs each fuzz target for FUZZTIME (default 30s here; CI uses 10s
# via check.sh).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseYAML$$' -fuzztime=$(FUZZTIME) ./internal/yaml
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzEncodeFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeStreamFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzAdminRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzEncode$$' -fuzztime=$(FUZZTIME) ./internal/tokenizer
	$(GO) test -run='^$$' -fuzz='^FuzzRingLookup$$' -fuzztime=$(FUZZTIME) ./internal/router
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePathsAgree$$' -fuzztime=$(FUZZTIME) ./internal/neural

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
