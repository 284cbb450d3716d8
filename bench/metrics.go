package main

// metricDef declares one metric. BENCHMARK.json lists the same names
// and units; bench_test.go fails when the two drift apart.
type metricDef struct {
	name, unit string
	// exact marks a simulated or structural statistic: it repeats bit
	// for bit between runs and commits, and for -seed 7 it is checked
	// against bench/golden.
	exact bool
}

// endToEnd is measured with tracing off (--trace 0), on every workload.
// A "job" is one unit of work a user waits for: one upload→result
// round trip on service_magritte, one whole iteration elsewhere.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "records_per_s", unit: "1/s"},
	{name: "jobs_per_s", unit: "1/s"},
	{name: "job_latency_p50_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// perLayer is measured in the traced run (--trace 1). A metric of a
// layer the workload never enters reads 0.
var perLayer = []metricDef{
	// trace: strace text → records (ingest_strace, re-timed per input).
	{name: "trace.parse_s", unit: "s"},
	{name: "trace.parse_us_per_record", unit: "us"},
	{name: "trace.parse_mb_per_s", unit: "MB/s"},
	{name: "trace.parse_allocs_per_record", unit: "count"},
	{name: "trace.records", unit: "count", exact: true},
	// snapshot
	{name: "snapshot.decode_s", unit: "s"},
	{name: "snapshot.restore_s", unit: "s"},
	// core: the ROOT analysis and dependency graph.
	{name: "core.analyze_s", unit: "s"},
	{name: "core.build_graph_s", unit: "s"},
	{name: "core.check_acyclic_s", unit: "s"},
	{name: "core.reduce_s", unit: "s"},
	{name: "core.edges_raw", unit: "count", exact: true},
	{name: "core.edges_enforced", unit: "count", exact: true},
	{name: "core.resources", unit: "count", exact: true},
	// artc: compiler and binary codec.
	{name: "artc.compile_s", unit: "s"},
	{name: "artc.compile_self_s", unit: "s"},
	{name: "artc.compile_allocs_per_record", unit: "count"},
	{name: "artc.encode_s", unit: "s"},
	{name: "artc.decode_s", unit: "s"},
	{name: "artc.artifact_bytes", unit: "bytes", exact: true},
	// artifact: the content-addressed store.
	{name: "artifact.compile_strace_s", unit: "s"},
	{name: "artifact.put_s", unit: "s"},
	{name: "artifact.get_s", unit: "s"},
	{name: "artifact.hit_share", unit: "ratio", exact: true},
	// stack: the simulated machine.
	{name: "stack.new_s", unit: "s"},
	{name: "stack.warm_s", unit: "s"},
	{name: "stack.call_count", unit: "count", exact: true},
	{name: "stack.call_errors", unit: "count", exact: true},
	// artc: the replayer.
	{name: "artc.init_s", unit: "s"},
	{name: "artc.replay_s", unit: "s"},
	{name: "artc.replay_us_per_record", unit: "us"},
	{name: "artc.replay_allocs_per_record", unit: "count"},
	{name: "artc.virtual_elapsed_ms", unit: "ms", exact: true},
	{name: "artc.semantic_errors", unit: "count", exact: true},
	{name: "artc.concurrency", unit: "ratio", exact: true},
	// cache: the simulated page cache.
	{name: "cache.hits", unit: "count", exact: true},
	{name: "cache.misses", unit: "count", exact: true},
	{name: "cache.writes", unit: "count", exact: true},
	{name: "cache.writebacks", unit: "count", exact: true},
	{name: "cache.evictions", unit: "count", exact: true},
	{name: "cache.resident_pages", unit: "count", exact: true},
	{name: "cache.sync_us_r4k", unit: "us"},
	{name: "cache.sync_us_r64k", unit: "us"},
	{name: "cache.sync_scan_ratio", unit: "ratio"},
	{name: "cache.drop_us_r64k", unit: "us"},
	// sched: the simulated I/O schedulers.
	{name: "sched.outstanding_max", unit: "count", exact: true},
	{name: "sched.cfq_ns_per_request", unit: "ns"},
	{name: "sched.noop_ns_per_request", unit: "ns"},
	// storage: the simulated devices.
	{name: "storage.reads", unit: "count", exact: true},
	{name: "storage.writes", unit: "count", exact: true},
	{name: "storage.blocks_written", unit: "count", exact: true},
	{name: "storage.busy_virtual_ms", unit: "ms", exact: true},
	{name: "storage.seek_virtual_ms", unit: "ms", exact: true},
	{name: "storage.hdd_ns_per_request", unit: "ns"},
	{name: "storage.ssd_ns_per_request", unit: "ns"},
	// sim: the discrete-event kernel.
	{name: "sim.timer_churn_ns_per_op", unit: "ns"},
	{name: "sim.sleep_churn_ns_per_op", unit: "ns"},
	{name: "sim.pingpong_ns_per_op", unit: "ns"},
	{name: "sim.completion_ns_per_op", unit: "ns"},
	{name: "sim.timer_churn_allocs_per_op", unit: "count"},
	// vfs: the in-memory file tree.
	{name: "vfs.resolve_ns_per_op", unit: "ns"},
	{name: "vfs.create_unlink_ns_per_op", unit: "ns"},
	{name: "vfs.rename_ns_per_op", unit: "ns"},
	// obs: replay observability.
	{name: "obs.record_overhead_share", unit: "ratio"},
	{name: "obs.write_chrome_s", unit: "s"},
	{name: "obs.export_bytes", unit: "bytes", exact: true},
	{name: "obs.spans", unit: "count", exact: true},
	{name: "obs.spans_dropped", unit: "count", exact: true},
	{name: "obs.critpath_s", unit: "s"},
	// shard: partition and slicing plans.
	{name: "shard.partition_s", unit: "s"},
	{name: "shard.slice_s", unit: "s"},
	{name: "shard.components", unit: "count", exact: true},
	{name: "shard.cross_edges", unit: "count", exact: true},
	{name: "shard.synthetic_edges", unit: "count", exact: true},
	{name: "shard.largest", unit: "count", exact: true},
	{name: "shard.plan_fingerprint", unit: "count", exact: true},
	// coord: the clock-exchange coordinator in artc/sharded.go.
	{name: "coord.replay_sharded_s", unit: "s"},
	{name: "coord.us_per_record", unit: "us"},
	{name: "coord.vs_serial_ratio", unit: "ratio"},
	{name: "coord.blocked_host_ms", unit: "ms"},
	{name: "coord.flush_batches", unit: "count"},
	{name: "coord.flush_max_batch", unit: "count"},
	{name: "coord.published", unit: "count", exact: true},
	{name: "coord.cross_wait_virtual_ms", unit: "ms", exact: true},
	// serve: the HTTP service.
	{name: "serve.job_latency_p95_ms", unit: "ms"},
	{name: "serve.queue_wait_ms_p50", unit: "ms"},
	{name: "serve.queue_wait_ms_p95", unit: "ms"},
	{name: "serve.run_ms_p50", unit: "ms"},
	{name: "serve.run_ms_p95", unit: "ms"},
	{name: "serve.hit_run_ms_p50", unit: "ms"},
	{name: "serve.miss_run_ms_p50", unit: "ms"},
	{name: "serve.http_overhead_ms_p50", unit: "ms"},
	{name: "serve.http_requests_per_job", unit: "count"},
	{name: "serve.upload_mb_per_s", unit: "MB/s"},
	{name: "serve.cache_hit_share", unit: "ratio"},
	{name: "serve.compiles_shared", unit: "count"},
	{name: "serve.rejected_share", unit: "ratio"},
	{name: "serve.vs_direct_ratio", unit: "ratio"},
	// par: the worker pool.
	{name: "par.pool_submit_ns_per_op", unit: "ns"},
	// bench: the benchmark itself.
	{name: "bench.trace_overhead_share", unit: "ratio"},
	{name: "bench.unattributed_share", unit: "ratio"},
	{name: "bench.iterations", unit: "count"},
	{name: "bench.iter_spread", unit: "ratio"},
}
