GO ?= go

# Every demo under examples/ must run to completion; each is bounded by
# this timeout so a hung example fails CI instead of wedging it.
EXAMPLE_TIMEOUT ?= 120s

.PHONY: build test vet dope-vet examples stalls bench api ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Standard vet plus the repo's own protocol analyzers (cmd/dope-vet),
# run both through the go vet unitchecker driver (which exercises the
# cross-package vetx fact flow) and as the standalone binary.
vet: dope-vet
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/bin/dope-vet ./...
	./bin/dope-vet ./...

dope-vet:
	$(GO) build -o bin/dope-vet ./cmd/dope-vet

examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		timeout $(EXAMPLE_TIMEOUT) $(GO) run ./$$d; \
	done

# Stall-tolerance and overload-protection experiment (EXPERIMENTS.md).
stalls:
	$(GO) run ./cmd/dope-bench -exp stalls

# Begin/End, queue hand-off and alternative-switch microbenchmarks with the
# gates CI runs on every push (no allocation on the first two; no drain-long
# head idle on the third), each at GOMAXPROCS 1 and 2 so the allocation gate
# also covers the contended path whatever the host's CPU count. Add RECORD=1
# to append a labeled entry per suite and GOMAXPROCS to its checked-in
# trajectory file (BENCH_beginend.json, BENCH_queue.json,
# BENCH_altswitch.json) when recording a milestone.
BENCH_LABEL ?= dev
BENCH_PROCS ?= 1 2
RECORD ?=
bench:
	@set -e; for procs in $(BENCH_PROCS); do \
		for suite in beginend queue altswitch; do \
			echo "== $$suite, GOMAXPROCS=$$procs"; \
			GOMAXPROCS=$$procs $(GO) run ./cmd/dope-bench -bench $$suite -label "$(BENCH_LABEL)" \
				$(if $(RECORD),-out BENCH_$$suite.json,) -gate; \
		done; \
	done

# Regenerate api.txt, the root package's exported surface that
# TestAPISurface compares against; run it for an intended API change and
# commit the diff with it.
api:
	$(GO) test -run TestAPISurface -update-api .

ci: build vet test examples
