GO ?= go

.PHONY: all vet lint build test check short race fuzz fuzz-ci ci loc bench-seed bench bench-rungs bench-gate serve shards smoke shard-smoke metrics-smoke

all: ci

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the project analyzer suite (faultseam,
# nopanic, metricname, lockguard, defensivecopy — see tools/gpnmlint).
# gpnmlint lives in a nested module so the root module stays
# dependency-free.
lint: vet
	cd tools/gpnmlint && $(GO) build -o /tmp/gpnmlint .
	/tmp/gpnmlint -version
	/tmp/gpnmlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-push gate: static checks + build + the full unit suite, then
# the frozen benchmark (benchmark/, its own module, which imports this
# one's packages) — so removing a symbol it uses fails here, not in CI.
check: lint build test
	cd benchmark && $(GO) vet . && $(GO) build -o /dev/null ./...

# Quick pass: skips the stress variants.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Brief fuzz pass over the graph text-format parsers, the shard wire
# decoders (any bytes a worker could answer), the worker's op and row
# handlers (any /ops or /rows body a coordinator could send), the
# pattern-set index's wake rule against the unindexed hub, the hub ≡ k
# UA sessions law (malformed batches refused by both), the paper's
# contract (every method ≡ Scratch ≡ the bounded-simulation reference
# on any instance and script), the change logs' sweeps against the
# per-update balls they replace (any graph, horizon and churn batch),
# the /v1 request decode (any body to /v1/patterns and /v1/apply) and
# the update grammar (script parse ↔ write ↔ /v1 codec). Every target
# but the four small decoders and FuzzIndexWake holds its minimizer to 5s
# per input: the default 60s would spend the whole budget shrinking one
# input.
fuzz:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=20s ./internal/graph/
	$(GO) test -fuzz=FuzzApplyLabels -fuzztime=20s ./internal/graph/
	$(GO) test -fuzz=FuzzDecodeRows -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzDecodeOpsResponse -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzWorkerOps -fuzztime=20s -fuzzminimizetime=5s ./internal/shard/
	$(GO) test -fuzz=FuzzWorkerRows -fuzztime=20s -fuzzminimizetime=5s ./internal/shard/
	$(GO) test -fuzz=FuzzIndexWake -fuzztime=20s ./internal/hub/
	$(GO) test -fuzz=FuzzHubSessions -fuzztime=20s -fuzzminimizetime=5s ./internal/hub/
	$(GO) test -fuzz=FuzzContract -fuzztime=20s -fuzzminimizetime=5s ./internal/core/
	$(GO) test -fuzz=FuzzSweepLogs -fuzztime=20s -fuzzminimizetime=5s ./internal/partition/
	$(GO) test -fuzz=FuzzAPIRequests -fuzztime=20s -fuzzminimizetime=5s ./internal/api/
	$(GO) test -fuzz=FuzzUpdateGrammar -fuzztime=20s -fuzzminimizetime=5s ./internal/api/

# The CI-sized fuzz pass: same targets, shorter budget.
fuzz-ci:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/graph/
	$(GO) test -fuzz=FuzzApplyLabels -fuzztime=10s ./internal/graph/
	$(GO) test -fuzz=FuzzDecodeRows -fuzztime=10s ./internal/shard/
	$(GO) test -fuzz=FuzzDecodeOpsResponse -fuzztime=10s ./internal/shard/
	$(GO) test -fuzz=FuzzWorkerOps -fuzztime=10s -fuzzminimizetime=5s ./internal/shard/
	$(GO) test -fuzz=FuzzWorkerRows -fuzztime=10s -fuzzminimizetime=5s ./internal/shard/
	$(GO) test -fuzz=FuzzIndexWake -fuzztime=10s ./internal/hub/
	$(GO) test -fuzz=FuzzHubSessions -fuzztime=10s -fuzzminimizetime=5s ./internal/hub/
	$(GO) test -fuzz=FuzzContract -fuzztime=10s -fuzzminimizetime=5s ./internal/core/
	$(GO) test -fuzz=FuzzSweepLogs -fuzztime=10s -fuzzminimizetime=5s ./internal/partition/
	$(GO) test -fuzz=FuzzAPIRequests -fuzztime=10s -fuzzminimizetime=5s ./internal/api/
	$(GO) test -fuzz=FuzzUpdateGrammar -fuzztime=10s -fuzzminimizetime=5s ./internal/api/

# The tier-1 gate: what CI runs.
ci: vet build race

# The non-test Go line counts ROADMAP quotes: the six tracked packages,
# their sum, then outside the sum the serving surface (internal/api and
# the root package) and the substrate's neighbours (internal/core,
# internal/shortest, internal/updates), and everything outside
# benchmark/ and tools/. No gate.
LOC_TRACKED = internal/hub internal/partition internal/shard internal/simulation cmd internal/bench
LOC_SHOWN = internal/api internal/core internal/shortest internal/updates
loc:
	@for d in $(LOC_TRACKED); do \
	  printf '%-20s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@printf '%-20s %6d\n' 'six tracked' $$(find $(LOC_TRACKED) -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@for d in $(LOC_SHOWN); do \
	  printf '%-20s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@printf '%-20s %6d\n' 'root package' $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-20s %6d\n' 'all non-test Go' $$(find . -path ./benchmark -prune -o -path ./tools -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)

# Record the paper-protocol baseline (mini protocol, machine-readable).
bench-seed:
	$(GO) run ./cmd/gpnm-bench -mini -quiet -json BENCH_seed.json -table XI

# Every testing.B rung of the layer ladder (shortest: the SLen build per
# matrix shape; partition: ball rows, overlay
# sync, ApplyDataBatch on the ball plane and on the §V plane; simulation:
# Amend; elim: DER-I's CanSets; core: the UA pass seeded by the change
# log against tree + Can seeds; shard: the row codec and warm client
# balls; hub: one batch of the 96-query fan), one iteration each — the CI pass that keeps them
# compiling and running. For numbers, raise -benchtime and add -benchmem
# -count.
bench-rungs:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/shortest ./internal/partition ./internal/simulation ./internal/elim ./internal/core ./internal/shard ./internal/hub

# The allocation gate: the rungs BENCH_rungs.json records (Amend,
# BallRow, Build, ApplyDataBatch/ball-plane, RowsCodec, CanSets, UAPass,
# HubBatch) at
# -cpu 1, three counts each; fails when a median allocs/op exceeds its
# record by more than max(1, 2 %) or B/op by more than max(64 B, 10 %),
# and prints ns/op without gating it (tools/benchgate). A change that
# moves a count on purpose re-records with
# `go run ./tools/benchgate -record` in its own diff.
bench-gate:
	$(GO) run ./tools/benchgate

# The one measuring entry point: every ladder rung once, then the
# repository benchmark's smoke run (all four workloads on tiny inputs,
# every result checked against the from-scratch oracle). Full runs and
# comparisons: benchmark/README.md.
bench: bench-rungs
	bash benchmark/run.sh -quick

# Standing-query HTTP server on a synthetic demo graph.
serve:
	$(GO) run ./cmd/gpnm-serve -synth-nodes 2000 -synth-edges 8000 -synth-labels 12

# Sharded quickstart: N gpnm-shard workers + one gpnm-serve coordinator
# on the demo graph (Ctrl-C tears the whole tree down gracefully).
SHARDS ?= 2
SHARD_BASE_PORT ?= 9101
shards:
	@$(GO) build -o /tmp/gpnm-shard ./cmd/gpnm-shard
	@$(GO) build -o /tmp/gpnm-serve ./cmd/gpnm-serve
	@set -e; pids=""; addrs=""; \
	trap 'kill $$pids 2>/dev/null || true' EXIT INT TERM; \
	for i in $$(seq 0 $$(( $(SHARDS) - 1 ))); do \
	  port=$$(( $(SHARD_BASE_PORT) + i )); \
	  /tmp/gpnm-shard -addr 127.0.0.1:$$port & pids="$$pids $$!"; \
	  addrs="$$addrs,127.0.0.1:$$port"; \
	done; \
	/tmp/gpnm-serve -synth-nodes 2000 -synth-edges 8000 -synth-labels 12 \
	  -shards "$${addrs#,}"

# The three end-to-end smokes over real binaries (scripts/smoke.sh: one
# build, one fleet bring-up, one stage each). smoke: gpnm-serve alone,
# the /v1 routes with curl, then the gpnm -server client.
smoke:
	bash scripts/smoke.sh serve

# 2 gpnm-shard workers + gpnm-serve -shards: register → apply → row-plane
# counters → kill -9 one worker → failover-recovered apply → graceful
# shutdown.
shard-smoke:
	bash scripts/smoke.sh shard

# 1 worker + pprof: the ldflags stamp, /v1/metrics, /v1/trace,
# per-pattern stats and worker /metrics must all answer with the
# counters advancing.
metrics-smoke:
	bash scripts/smoke.sh metrics
