# hetsyslog — build and reproduction targets.

GO ?= go

.PHONY: all build vet test bench experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Uncached and on 1, 2 and 4 Ps: an ordering bug that only shows with real
# parallelism (or only without it) must not hide behind the test cache.
# The -race run is the step CI runs after the plain one, so a local green
# means a CI green. bench/ is a module of its own, so tier-1 alone never
# builds it: vet and test it here, or an internal/ change can break the
# benchmark of record unnoticed (its smoke run takes about 40 s).
test:
	$(GO) test -count=1 -cpu 1,2,4 ./...
	$(GO) test -race -count=1 -cpu 1,2,4 ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every table and figure (laptop scale; SCALE=196393 for the
# paper's full corpus).
SCALE ?= 20000
experiments:
	$(GO) run ./cmd/experiments -scale $(SCALE)

# The benchmark of record (bench/README.md): five workloads, end-to-end
# metrics checked against brute-force references. ARGS="--trace 1" adds
# the per-layer metrics.
bench:
	bash bench/run.sh $(ARGS)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/llmcompare
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/driftretrain
	$(GO) run ./examples/summarize

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf .bench_build bench/out
