package main

// metricDef names one metric of the benchmark. The two tables below are the
// harness's side of BENCHMARK.json: smoke_test.go checks that the file lists
// exactly these names, units and directions.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	what   string // printed beside the value
}

// endToEnd is what every workload reports with -trace 0 and what gates: the
// costs per operation that repeat on this host, and the set-up time. What an
// operation is differs by workload (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"alloc_kb_per_op", "KB", "lower", "heap allocated per operation"},
	{"allocs_per_op", "count", "lower", "heap objects allocated per operation"},
	{"io_kb_per_op", "KB", "lower", "bytes through read and write system calls per operation (sockets and files)"},
	{"syscalls_per_op", "count", "lower", "read and write system calls per operation"},
	{"setup_s", "s", "lower", "median set-up: everything before the first timed operation"},
}

// perLayer is what every workload reports with -trace 1: every probe runs
// against every workload's plant, so no timing reads 0.
var perLayer = []metricDef{
	// Build side, stage by stage on the workload's own model text.
	{"lexer.scan_ms", "ms", "lower", "lexer.ScanAll"},
	{"lexer.tokens", "count", "lower", "tokens scanned"},
	{"parser.parse_ms", "ms", "lower", "parser.ParseFile"},
	{"sema.resolve_ms", "ms", "lower", "sema.Resolve"},
	{"core.extract_ms", "ms", "lower", "core.ExtractFactory"},
	{"codegen.intermediate_ms", "ms", "lower", "codegen.BuildIntermediate"},
	{"codegen.group_ms", "ms", "lower", "codegen.Group"},
	{"codegen.json_ms", "ms", "lower", "Intermediate.JSONFiles"},
	{"codegen.generate_ms", "ms", "lower", "codegen.GenerateWithCache, cold cache"},
	{"codegen.config_kb", "KB", "lower", "size of the generated configuration"},
	{"codegen.regenerate_ms", "ms", "lower", "codegen.GenerateWithCache after the one-machine edit, warm cache"},
	{"codegen.cache_hit_ratio", "ratio", "higher", "units served from the cache by that pass"},
	{"yamlenc.marshal_ms", "ms", "lower", "yamlenc.MarshalDocs of the decoded manifests"},
	{"yamlenc.unmarshal_ms", "ms", "lower", "yamlenc.UnmarshalDocs of the manifests"},
	{"k8s.decode_validate_ms", "ms", "lower", "k8s.Decode + k8s.Validate of the manifests"},
	// Deployment, from the set-ups (and the rounds of commission).
	{"generate_ms", "ms", "lower", "model text → bundle (sysml2conf.Run, plus the sharded re-render)"},
	{"generate_alloc_mb", "MB", "lower", "heap allocated by that pass"},
	{"machinesim.fleet_start_ms", "ms", "lower", "deploy.StartFleet"},
	{"deploy.apply_ms", "ms", "lower", "Cluster.ApplyBundle + StartQueryServer"},
	{"deploy.first_sample_ms", "ms", "lower", "apply returned → every machine answers over /range"},
	{"deploy.reconfigure_ms", "ms", "lower", "Cluster.Reconfigure for the one-machine edit"},
	{"deploy.shutdown_ms", "ms", "lower", "Cluster.Shutdown + Fleet.Close"},
	{"deploy.pods", "count", "lower", "pods of the deployed bundle"},
	// Isolated round trips on the live plant.
	{"machinesim.get_us", "us", "lower", "Conn.Get round trip"},
	{"machinesim.call_us", "us", "lower", "Conn.Call round trip"},
	{"opcua.read_us", "us", "lower", "Client.Read on a generated server"},
	{"opcua.call_us", "us", "lower", "Client.Call on a generated server"},
	{"stack.call_us", "us", "lower", "stack.CallService round trip"},
	{"stack.call_overhead_us", "us", "lower", "stack.call_us − opcua.call_us: bridge + broker request/response"},
	{"broker.publish_deliver_us", "us", "lower", "publish → own subscriber"},
	{"broker.acked_rtt_us", "us", "lower", "acknowledged publish round trip"},
	{"broker.cross_shard_us", "us", "lower", "publish → acked session subscriber on shard 0, from a non-owner shard where the plant has shards"},
	{"placement.owner_ns", "ns", "lower", "Ring.Owner"},
	// One serial stamp on a reserved series, tapped at each hop, beside the load.
	{"stack.poll_notify_p50_ms", "ms", "lower", "stamp → data change at a harness-owned OPC UA client"},
	{"stack.bridge_broker_p50_ms", "ms", "lower", "OPC UA data change → broker delivery"},
	{"historian.ingest_lag_p50_ms", "ms", "lower", "broker delivery → Store.Latest shows it"},
	// Storage, on scratch stores fed the workload's own payloads.
	{"historian.append_us", "us", "lower", "volatile Store.AppendBatch per sample"},
	{"historian.durable_append_us", "us", "lower", "durable Store.AppendBatch per sample"},
	{"wal.append_us", "us", "lower", "wal.Log.Append of one batch record"},
	{"historian.disk_b_per_sample", "B", "lower", "durable directory size per sample"},
	{"historian.recover_us_per_sample", "us", "lower", "historian.Open on that directory per sample"},
	// Query tier, on the live query server.
	{"historian.query_hit_us", "us", "lower", "QueryServer.Aggregate, cached windows"},
	{"historian.query_miss_us", "us", "lower", "QueryServer.Aggregate, first touch"},
	{"historian.cache_hit_ratio", "ratio", "higher", "CacheStats hits / (hits + misses) over the run"},
	{"historian.http_overhead_us", "us", "lower", "HTTP /aggregate − direct Aggregate on the same windows"},
	// Operations tier: one small campaign on the live plant.
	{"ops.compile_ms", "ms", "lower", "BuildRecipe + Cluster.NewCampaign"},
	{"ops.step_us", "us", "lower", "Executor.Run wall time per step"},
	{"ops.audit_ms", "ms", "lower", "ops.AuditCampaign over HTTP"},
	{"ops.campaign_steps_per_s", "1/s", "higher", "steps completed with an acknowledged ledger per second of Executor.Run"},
	{"ops.flush_resumes", "count", "lower", "campaigns whose Run returned before the ledger was flushed and were resumed"},
	// Designed as end-to-end metrics, and what a user of the plant waits for;
	// timings of CPU-bound work do not repeat within any allowed bound on
	// this host (README, "Baseline and bounds"), so these do not gate.
	// compare judges them by the paired-runs rule.
	{"latency_p50_ms", "ms", "lower", "median latency of the workload's operation"},
	{"followup_p50_ms", "ms", "lower", "median latency of the workload's follow-up operation"},
	{"cpu_ms_per_op", "ms", "lower", "process CPU time per operation"},
	{"throughput_per_s", "1/s", "higher", "operations completed per second"},
	// Tails, further medians and generator lateness: they explain a move.
	{"latency_p90_ms", "ms", "lower", "operation latency, p90"},
	{"latency_p99_ms", "ms", "lower", "operation latency, p99"},
	{"latency_max_ms", "ms", "lower", "operation latency, worst"},
	{"followup_p90_ms", "ms", "lower", "follow-up latency, p90"},
	{"query_p50_ms", "ms", "lower", "historian HTTP query issued by the workload, median"},
	{"query_p99_ms", "ms", "lower", "the same, p99"},
	{"queryable_age_p50_ms", "ms", "lower", "value written at a machine → visible in the owning historian, median"},
	{"plant_cpu_cores", "cores", "lower", "process CPU-seconds per wall-second in the measured window"},
	{"go.gc_pause_ms", "ms", "lower", "GC stop-the-world time in the measured window"},
	{"go.heap_peak_mb", "MB", "lower", "heap obtained from the OS by the end of the run"},
}
