GO ?= go

.PHONY: build test check soak soak-federated soak-query soak-campaign fuzz plantbench plantbench-ab

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
# .bench_build/ab/ref, and seeds 1-10 of each workload in WORKLOAD (a
# space-separated list) run on both sides — per seed, each workload in
# turn, the revision first on odd seeds and this tree first on even ones —
# and `plantbench compare` judges the two sets of records, workload by
# workload (bounds for the gated metrics, the 9-of-10 pairs rule for the
# timings). So one call A/Bs a claim's workload and the workloads that
# must not move. About 10 minutes per workload; the first run of the REF
# side also builds its own Go cache.
#   make plantbench-ab REF=HEAD~1
#   make plantbench-ab REF=main WORKLOAD="commission telemetry firehose operations"
WORKLOAD ?= commission
AB = .bench_build/ab
plantbench-ab:
	@test -n "$(REF)" || { echo "usage: make plantbench-ab REF=<rev> [WORKLOAD=\"commission ...\"]"; exit 2; }
	rm -rf $(AB)
	mkdir -p $(AB)/ref
	git archive $(REF) | tar -x -C $(AB)/ref
	@for seed in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((seed % 2)) -eq 1 ]; then order="ref change"; else order="change ref"; fi; \
		for workload in $(WORKLOAD); do \
			for side in $$order; do \
				if [ $$side = ref ]; then dir=$(AB)/ref; else dir=.; fi; \
				echo "== $$workload seed $$seed: $$side"; \
				(cd $$dir && sh benchmark/run.sh --workload $$workload --seed $$seed --seconds 20 --trace 0 \
					--out $(CURDIR)/$(AB)/out-$$side) > $(AB)/last-run.log 2>&1 || { cat $(AB)/last-run.log; exit 1; }; \
				tail -n 1 $(AB)/last-run.log; \
			done; \
		done; \
	done
	.bench_build/plantbench compare $(AB)/out-ref/runs.jsonl $(AB)/out-change/runs.jsonl

# Exploratory fuzzing of the decoders of bytes we did not just produce: the
# wire frame reader with each protocol's frame codec (corrupt, truncated
# and oversized frames; broker frames and OPC UA messages), the broker's
# topic matcher and filter check (against their split-into-levels
# reference), the historian's
# WAL record codec, the machine driver protocol (the sweep response
# splitter against encoding/json, and the emulator's request dispatch) and
# the YAML decoder every manifest is read back with (its one-pass unquote
# against strconv.Unquote; the document decoder against panics and against
# its own encoder), and the SysML front end every model enters through
# (lex, parse and resolve against panics and unpositioned errors; parse,
# print and parse against the printer), and the two places a sample skips
# encoding/json (the monitor's payload scan against json.Unmarshal, the
# bridge's value splice against decode and re-encode). `make check`
# replays the seed corpora and CI's fuzz-smoke job explores each target
# for 10 s; run this
# for minutes or hours when touching internal/wire framing, a protocol
# codec, topic matching, the WAL record format, the machinesim wire protocol,
# internal/yamlenc, internal/sysml or the stack's sample fast paths.
FUZZ_TIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzBinaryFrameDecode -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/broker/
	$(GO) test -fuzz=FuzzBinaryBodyRoundTrip -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/broker/
	$(GO) test -fuzz=FuzzMatchTopic -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/broker/
	$(GO) test -fuzz=FuzzOpcuaFrameDecode -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/opcua/
	$(GO) test -fuzz=FuzzOpcuaBodyRoundTrip -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/opcua/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/historian/
	$(GO) test -fuzz=FuzzSweepResponse -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/machinesim/
	$(GO) test -fuzz=FuzzDispatch -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/machinesim/
	$(GO) test -fuzz=FuzzUnquote -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/yamlenc/
	$(GO) test -fuzz=FuzzUnmarshalDocs -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/yamlenc/
	$(GO) test -fuzz=FuzzParseResolve -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/sysml/sema/
	$(GO) test -fuzz=FuzzPrintRoundTrip -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/sysml/sema/
	$(GO) test -fuzz=FuzzMonitorIngest -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/stack/
	$(GO) test -fuzz=FuzzBridgeSamplePayload -fuzztime=$(FUZZ_TIME) -run='^$$' ./internal/stack/

# Durability soak: the seeded chaos suites under the race detector — the
# zero-loss audit (historian crashes + broker partition, every sequence
# exactly once), the convergence soak and the partition-overlapped
# reconfigure — then the supervision tests 20 times: one pod record is
# shared by the probe loop, supervised restarts, KillPod, Remove and
# Shutdown, and a race between them (a restart that does not stop the
# component it replaces, a kill mid-restart) shows only now and then. Then
# the WAL's concurrent-append and acked-means-synced tests 200 times at 1,
# 2 and 4 CPUs, then the durable historian's checkpoint tests 20 times (a
# checkpoint is written on its own goroutine while appends go on: a slow
# snapshot fsync, crashes before and after its rename, compaction) with
# the WAL record contract (recovery stores every payload as it arrived; a
# packed-float sample is refused), then
# the OPC UA subscription tests and the bridge's
# server-restart test 50 times: one subscription carries a machine's items
# through one queue set, one wake channel and one puller or bridge loop,
# and its races (an item registered with the ack, a change right behind
# it, a shed while the consumer takes, a resubscribe after a lost
# connection) show only now and then. Then the broker's index and pacing
# tests 20 times: one index lock is shared by publish, subscribe and
# retained replay, and a race between them (a retained publish stored and
# matched in two steps, a subscriber registering in between and getting
# the message twice) shows only now and then. Longer than tier-1; run before
# touching the broker, the WAL, the OPC UA subscriptions, the bridge or
# the supervision layers.
soak:
	$(GO) test -race -count=1 -v \
		-run 'TestChaosAuditZeroLoss|TestChaosSeededSoakConverges|TestReconfigureUnderPartitionConverges' \
		./internal/deploy/
	$(GO) test -race -count=20 \
		-run 'TestKillPod|TestBrokerKillCascadesAndHeals|TestShutdown|TestDuplicateDeploymentRejected|TestRemoveUnknownPod|TestReconfigure(NoChanges|MachineAdded|DriverEndpointChange)|TestLivenessRestartStopsOldComponentOnce|TestConfigNameMismatchRefused' \
		./internal/deploy/
	$(GO) test -race -count=200 -cpu 1,2,4 \
		-run 'TestConcurrentAppends|TestAppendAcksOnlySyncedBytes' ./internal/wal/
	$(GO) test -race -count=20 \
		-run 'TestCheckpoint|TestLSNsContinueAboveSnapshot|TestDurable|TestCompressedWALRecoveryEquivalence|TestPackedFloatWALRefused' \
		./internal/historian/
	$(GO) test -race -count=50 -run 'TestSubscri|TestClientLost|TestBridgeSurvivesServerRestart' \
		./internal/opcua/ ./internal/stack/
	$(GO) test -race -count=20 \
		-run 'TestShardedConcurrentChurn|TestRetained|TestRetainedReplayExactlyOnce|TestAckedSessionPacesPublishers|TestPublishSeqDedupIsAtomicPerSession|TestKeptUpSubscriptionPublishAllocatesOnce' \
		./internal/broker/

# Federation soak: the multi-broker plant under the race detector — the
# cross-shard chaos audit (ingress node killed + bridge link partitioned,
# every sample exactly once), the federated deploy end-to-end, and the
# broker-level federation and outbox suites (forwarding dedup, bridge
# replay, link flaps, truncated-window replay, Flush across a replay,
# replay past a closing broker or ingress node). The outbox suite runs 10
# times: an outbox backs off before redialing after a connection that
# carried no ack, so its replays wait on timers a loaded host can stretch.
# Run before touching the placement ring, the uplink outboxes, the bridge
# links or the sharded deploy path.
soak-federated:
	$(GO) test -race -count=1 -v \
		-run 'TestFederatedChaosAuditZeroLoss|TestFederatedDeployEndToEnd' \
		./internal/deploy/
	$(GO) test -race -count=1 -run 'TestFederation|TestNode' ./internal/broker/
	$(GO) test -race -count=10 -run 'TestOutbox' ./internal/broker/
	$(GO) test -race -count=1 ./internal/placement/

# Query soak: the historian serving tier under the race detector — the
# end-to-end HTTP query path over a deployed plant, and query traffic
# sustained while the broker partitions and historian pods are killed.
# Run before touching the query cache, block sealing or the rollups.
soak-query:
	$(GO) test -race -count=1 -v \
		-run 'TestQueryAPIOverDeployedCluster|TestQueryUnderChaosSoak' \
		./internal/deploy/
	$(GO) test -race -count=1 -run 'TestQuery' ./internal/historian/

# Campaign soak: the operations tier under the race detector — the
# exact-completion chaos audit (machine kill mid-campaign + broker
# partition + reconfigure under load, exactly N parts reconciled against
# the historian), plus the executor suite (replanning, shortfall,
# restart-without-double-dispatch, Run returning only with the ledger
# flushed). Run before touching the planner, the executor, the ledger or
# the broker.Outbox its publisher submits to.
soak-campaign:
	$(GO) test -race -count=1 -v \
		-run 'TestCampaignChaosAuditExactCompletion' \
		./internal/deploy/
	$(GO) test -race -count=1 ./internal/ops/
