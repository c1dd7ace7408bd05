GO ?= go

.PHONY: all build test vet fmt-check fmt lint race bench bench-smoke bench-compare check serve loadtest fleet pre

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file needs gofmt; fmt rewrites in place.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

# lint runs go vet plus gvnlint, the repo's own static-analysis suite
# (internal/analysis): five analyzers enforcing the performance and
# concurrency invariants prior passes bought. Any unsuppressed finding
# fails the target.
lint: vet
	$(GO) run ./cmd/gvnlint ./...

# race runs the full suite under the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke vets and smoke-tests the end-to-end benchmark (bench/, see
# bench/README.md). It is a module of its own, so ./... never reaches it,
# and a broken call into parser, ir, ssa, core, opt, driver or server
# would otherwise only surface when the benchmark runs (~6 s).
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# bench-compare benchmarks the working tree against another git ref
# (BASE, default HEAD~1): it checks BASE out into a temporary worktree,
# runs the selected benchmarks (BENCH regex; COUNT runs of BENCHTIME
# iterations each, -benchmem) in both trees, and prints a
# benchstat-style table of mean ns/op and allocs/op with deltas
# (scripts/benchdiff.awk). Needs only git, go and awk.
#
#   make bench-compare                      # vs HEAD~1, fixpoint benches
#   make bench-compare BASE=v0.1 BENCH=.    # vs a tag, all benches
BASE ?= HEAD~1
BENCH ?= BenchmarkGVN
BENCHTIME ?= 50x
COUNT ?= 3

bench-compare:
	@set -e; tmp=$$(mktemp -d); \
	cleanup() { git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"; }; \
	trap cleanup EXIT; \
	git worktree add -q "$$tmp/base" "$(BASE)"; \
	echo "== benchmarking $(BASE)"; \
	( cd "$$tmp/base" && $(GO) test -run '^$$' -bench '$(BENCH)' \
		-benchtime $(BENCHTIME) -benchmem -count $(COUNT) . ) > "$$tmp/base.txt"; \
	echo "== benchmarking working tree"; \
	$(GO) test -run '^$$' -bench '$(BENCH)' \
		-benchtime $(BENCHTIME) -benchmem -count $(COUNT) . > "$$tmp/head.txt"; \
	awk -f scripts/benchdiff.awk "$$tmp/base.txt" "$$tmp/head.txt"

# serve boots the optimization daemon with a warm disk store under
# ./gvnd-store; loadtest drives a running daemon open-loop and writes a
# gvnd-load/v3 snapshot. Override via GVND_ADDR / GVND_QPS / GVND_DURATION.
GVND_ADDR ?= localhost:8080
GVND_QPS ?= 20
GVND_DURATION ?= 10s

serve:
	$(GO) run ./cmd/gvnd -addr $(GVND_ADDR) -store gvnd-store

loadtest:
	$(GO) run ./cmd/gvnload -server-url http://$(GVND_ADDR) \
		-qps $(GVND_QPS) -duration $(GVND_DURATION) -json load.json

# fleet boots a FLEET_SIZE-node gvnd fleet (ring-routed, per-node disk
# stores under ./fleet-store-<port>) in the foreground of one shell and
# prints the matching gvnload -targets line. Ctrl-C drains all nodes.
FLEET_SIZE ?= 3
FLEET_BASE_PORT ?= 8080

fleet: build
	@set -e; \
	peers=""; \
	for i in $$(seq 0 $$(( $(FLEET_SIZE) - 1 ))); do \
		port=$$(( $(FLEET_BASE_PORT) + i )); \
		peers="$$peers$${peers:+,}http://127.0.0.1:$$port"; \
	done; \
	echo "fleet: drive with: go run ./cmd/gvnload -targets $$peers -qps 100 -duration 10s"; \
	trap 'kill 0' INT TERM; \
	for i in $$(seq 0 $$(( $(FLEET_SIZE) - 1 ))); do \
		port=$$(( $(FLEET_BASE_PORT) + i )); \
		$(GO) run ./cmd/gvnd -addr 127.0.0.1:$$port -node http://127.0.0.1:$$port \
			-peers "$$peers" -store fleet-store-$$port & \
	done; \
	wait

# pre runs the GVN-PRE slice of the suite: the workload family and
# preset goldens that pin the pass's eliminations, the fault-conviction
# and equivalence tests, the driver overhead guard (PRE-on batch must
# stay within 1.15x of PRE-off) and the PRE driver benchmark, whose
# removed/batch metric carries the aggregate elimination evidence.
pre:
	$(GO) test -run 'PRE|PartialRedundancy' ./...
	$(GO) test -run TestDriverPREOverheadGuard -v .
	$(GO) test -run '^$$' -bench BenchmarkDriverPRE -benchtime 5x -benchmem .

check: build lint fmt-check test race bench-smoke
