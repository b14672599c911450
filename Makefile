# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench bench-repo bench-relaxed figures repro repro-quick chaos-quick examples vet fmt lint pqd pqload admin-smoke

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# vet plus staticcheck when the host has it (CI installs it; locally
# it is optional).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

# bench/ is its own module, so ./... does not reach its tests.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's one benchmark (BENCHMARK.json): six workloads, end-to-end
# and per-layer metrics, an exactly-once audit per workload. Serving-
# stack changes are judged with its -compare; see bench/README.md.
bench-repo:
	bash bench/run.sh

# Regenerate every table and figure of the paper at full scale.
repro:
	$(GO) run ./cmd/pqbench -experiment all

# Same, at a quarter of the per-processor operation count (~seconds).
repro-quick:
	$(GO) run ./cmd/pqbench -experiment all -scale 0.25

# Relaxed frontier: MultiQueue throughput vs measured rank error over
# c and processor count, with FunnelTree as the exact baseline. The
# full-scale table lands in EXPERIMENTS.md; SCALE=0.25 for a quick run.
SCALE ?= 1
bench-relaxed:
	$(GO) run ./cmd/pqbench -frontier -scale $(SCALE) -q

# Every figure plus the internals metrics report and latency histograms.
figures:
	$(GO) run ./cmd/pqbench -experiment all -scale 0.25 -plot
	$(GO) run ./cmd/pqbench -metrics -plot -scale 0.25

# Fault-injection matrix: every algorithm under stalls, module
# degradation and crash-stop, with history checking (~seconds).
chaos-quick:
	$(GO) run ./cmd/pqbench -chaos -scale 0.25

# The serving subsystem: the pqd daemon and its manual load tool.
pqd:
	$(GO) build -o bin/pqd ./cmd/pqd

pqload:
	$(GO) build -o bin/pqload ./cmd/pqload

# Admin endpoint smoke: boot pqd with -admin-addr, probe the health
# endpoints, assert every required /metrics family is present, and
# require a clean exit on SIGTERM.
admin-smoke:
	GO="$(GO)" sh ./scripts/admin_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scheduler
	$(GO) run ./examples/router
	$(GO) run ./examples/paperfig
	$(GO) run ./examples/hotspots
