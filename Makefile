GO ?= go

# Tier-1 benchmark set tracked by the regression harness: the build side
# (full model analysis + generation, the 1x-8x scale sweep, the language
# front end), the data plane (broker fan-out, framed wire, historian
# ingest), the durability tier (WAL append, crash recovery), the historian
# serving tier (concurrent cached aggregate queries), the federated
# plant at 1000+ machines (cross-shard forward + bridge path) and the
# operations tier (campaign planner/executor steps/s over the fleet).
BENCH_PATTERN ?= BenchmarkTable1|BenchmarkAblationScale|BenchmarkParserThroughput|BenchmarkBrokerFanout|BenchmarkBrokerWire|BenchmarkHistorianIngest|BenchmarkHistorianQuery|BenchmarkWALAppend|BenchmarkHistorianRecovery|BenchmarkFederatedScale|BenchmarkCampaignThroughput
DATAPLANE_PATTERN = BenchmarkBrokerFanout|BenchmarkBrokerWire|BenchmarkHistorianIngest|BenchmarkHistorianQuery|BenchmarkWALAppend|BenchmarkHistorianRecovery
BENCH_DATE ?= $(shell date +%Y-%m-%d)
# Benchmark repetitions: BENCH_COUNT > 1 runs each benchmark N times and
# benchdiff -best-of keeps the fastest run, so the regression gate compares
# min-of-N instead of a single noisy sample.
BENCH_COUNT ?= 1
# Benchmarks whose ns/op measures a blocking round trip (scheduler wake-up
# latency) rather than pipelined throughput: benchdiff annotates their
# regressions as LATENCY-BOUND instead of failing the gate, since they swing
# with runner load far beyond the 15% threshold.
BENCH_LATENCY_BOUND ?= ^BenchmarkBrokerWireSync$$

.PHONY: build test check soak soak-federated soak-query soak-campaign bench benchdiff bench-full bench-dataplane bench-smoke fuzz plantbench plantbench-ab

build:
	$(GO) build ./...

# Tier-1: what every change must keep green.
test: build
	$(GO) test ./...

# Tier-2: gofmt + vet + the full suite under the race detector (the
# supervision, chaos, snapshot and codegen worker-pool layers are
# concurrency-heavy), then the benchmark harness's own tests — a module of
# its own under benchmark/, compiled against this tree, so a change that
# breaks a symbol the harness imports fails here. `go test` also replays
# the fuzz seed corpora (the f.Add seeds of the Fuzz* targets) as regular
# tests.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	cd benchmark && $(GO) test ./...

# One set of the plantbench workloads (commission, telemetry, firehose,
# operations; see benchmark/README.md): the only basis for a perf claim.
# The exit code is the harness's correctness checks (exactly-once, order,
# counts), not a number. CI runs the same with --seconds 5.
plantbench:
	sh benchmark/run.sh --workload all --seed 1 --seconds 20 --trace 0

# A/B of this working tree against a git revision, the way a timing claim
# has to be made (ROADMAP "Perf tier"): REF is exported under
# .bench_build/ab/ref, seeds 1-10 of WORKLOAD run on both sides — the
# revision first on odd seeds, this tree first on even ones — and
# `plantbench compare` judges the two sets of records (bounds for the gated
# metrics, the 9-of-10 pairs rule for the timings). About 10 minutes for
# commission; the first run of the REF side also builds its own Go cache.
#   make plantbench-ab REF=HEAD~1
#   make plantbench-ab REF=main WORKLOAD=telemetry
WORKLOAD ?= commission
AB = .bench_build/ab
plantbench-ab:
	@test -n "$(REF)" || { echo "usage: make plantbench-ab REF=<rev> [WORKLOAD=commission]"; exit 2; }
	rm -rf $(AB)
	mkdir -p $(AB)/ref
	git archive $(REF) | tar -x -C $(AB)/ref
	@for seed in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((seed % 2)) -eq 1 ]; then order="ref change"; else order="change ref"; fi; \
		for side in $$order; do \
			if [ $$side = ref ]; then dir=$(AB)/ref; else dir=.; fi; \
			echo "== $(WORKLOAD) seed $$seed: $$side"; \
			(cd $$dir && sh benchmark/run.sh --workload $(WORKLOAD) --seed $$seed --seconds 20 --trace 0 \
				--out $(CURDIR)/$(AB)/out-$$side) > $(AB)/last-run.log 2>&1 || { cat $(AB)/last-run.log; exit 1; }; \
			tail -n 1 $(AB)/last-run.log; \
		done; \
	done
	.bench_build/plantbench compare $(AB)/out-ref/runs.jsonl $(AB)/out-change/runs.jsonl

# Exploratory fuzzing of the decoders of bytes we did not just produce: the
# binary wire decoder (corrupt, truncated and oversized frames against the
# mixed-framing reader and the frame codec), the machine driver protocol
# (the sweep response splitter against encoding/json, and the emulator's
# request dispatch) and the YAML decoder every manifest is read back with
# (its one-pass unquote against strconv.Unquote; the document decoder
# against panics and against its own encoder). CI runs only the seed corpora
# (via `make check`); run this for minutes or hours when touching
# internal/wire framing, a protocol codec, the machinesim wire protocol or
# internal/yamlenc.
FUZZ_TIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzBinaryFrameDecode -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/broker/
	$(GO) test -fuzz=FuzzBinaryBodyRoundTrip -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/broker/
	$(GO) test -fuzz=FuzzSweepResponse -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/machinesim/
	$(GO) test -fuzz=FuzzDispatch -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/machinesim/
	$(GO) test -fuzz=FuzzUnquote -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/yamlenc/
	$(GO) test -fuzz=FuzzUnmarshalDocs -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/yamlenc/

# Durability soak: the seeded chaos suites under the race detector — the
# zero-loss audit (historian crashes + broker partition, every sequence
# exactly once), the convergence soak and the partition-overlapped
# reconfigure. Longer than tier-1; run before touching the broker, the WAL
# or the supervision layers.
soak:
	$(GO) test -race -count=1 -v \
		-run 'TestChaosAuditZeroLoss|TestChaosSeededSoakConverges|TestReconfigureUnderPartitionConverges' \
		./internal/deploy/

# Federation soak: the multi-broker plant under the race detector — the
# cross-shard chaos audit (ingress node killed + bridge link partitioned,
# every sample exactly once), the federated deploy end-to-end, and the
# broker-level federation suite (forwarding dedup, bridge replay, link
# flaps). Run before touching the placement ring, the bridge links or the
# sharded deploy path.
soak-federated:
	$(GO) test -race -count=1 -v \
		-run 'TestFederatedChaosAuditZeroLoss|TestFederatedDeployEndToEnd' \
		./internal/deploy/
	$(GO) test -race -count=1 \
		-run 'TestFederation|TestNode' ./internal/broker/
	$(GO) test -race -count=1 ./internal/placement/

# Query soak: the historian serving tier under the race detector — the
# end-to-end HTTP query path over a deployed plant, and query traffic
# sustained while the broker partitions and historian pods are killed.
# Run before touching the query cache, the block encoder or the rollups.
soak-query:
	$(GO) test -race -count=1 -v \
		-run 'TestQueryAPIOverDeployedCluster|TestQueryUnderChaosSoak' \
		./internal/deploy/
	$(GO) test -race -count=1 -run 'TestQuery' ./internal/historian/

# Campaign soak: the operations tier under the race detector — the
# exact-completion chaos audit (machine kill mid-campaign + broker
# partition + reconfigure under load, exactly N parts reconciled against
# the historian), plus the executor suite (replanning, shortfall,
# restart-without-double-dispatch). Run before touching the planner, the
# executor or the ledger publisher.
soak-campaign:
	$(GO) test -race -count=1 -v \
		-run 'TestCampaignChaosAuditExactCompletion' \
		./internal/deploy/
	$(GO) test -race -count=1 ./internal/ops/

# Tier-3: run the tier-1 benchmarks, snapshot them to BENCH_<date>.json,
# and fail on a >15% ns/op regression against the latest committed snapshot.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=1s -count=$(BENCH_COUNT) . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	@cat bench.out
	$(GO) run ./cmd/benchdiff -write BENCH_$(BENCH_DATE).json -compare-latest . -best-of $(BENCH_COUNT) -latency-bound '$(BENCH_LATENCY_BOUND)' < bench.out
	@rm -f bench.out

# Compare the two most recent snapshots without re-running benchmarks.
benchdiff:
	$(GO) run ./cmd/benchdiff \
		-prev $$(ls BENCH_*.json | sort | tail -n 2 | head -n 1) \
		-cur  $$(ls BENCH_*.json | sort | tail -n 1)

# Only the runtime data-plane benchmarks (broker, wire, historian) — quick
# feedback when iterating on the message path.
bench-dataplane:
	$(GO) test -run='^$$' -bench='$(DATAPLANE_PATTERN)' -benchmem -benchtime=1s .

# Smoke-run the hot-path benchmarks at a fixed tiny iteration count — PR CI
# uses this to prove the wire and fan-out paths still execute end to end
# (a hang or Fatal fails fast) without paying for a statistically
# meaningful -benchtime on shared runners. The federated case runs in its
# own invocation: -bench sub-patterns apply per slash level, and the
# shards= filter would otherwise hide BenchmarkBrokerFanout's sub-benches.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkBrokerWire|BenchmarkBrokerFanout|BenchmarkHistorianQuery' -benchtime=100x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkFederatedScale/shards=4/machines=1000$$' -benchtime=100x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkCampaignThroughput/shards=1$$' -benchtime=100x -benchmem .

# Every benchmark in the repo, including the slow end-to-end deploy loops.
bench-full:
	$(GO) test -bench=. -benchmem ./...
