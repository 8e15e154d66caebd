package main

import "fmt"

// metricDef names one metric. Bound is the relative worsening that counts
// as a regression; BENCHMARK.json repeats name, unit, direction and bound
// for the end-to-end metrics and name, unit and direction for the layer
// metrics (bench_test.go keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a metric that is a pure function of the seed: an A/A
	// comparison expects it to agree to within the bound, and treats a
	// wider difference as a failure, not as noise.
	Exact bool
}

// endToEnd is what every workload reports from an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "round_p10_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_item", Unit: "count", Better: "lower", Bound: 0.03, Exact: true},
	{Name: "alloc_bytes_per_item", Unit: "B", Better: "lower", Bound: 0.03, Exact: true},
}

// perLayer is what a traced run reports; a metric that does not apply to
// a workload reads 0 there. The first eight are whole-workload numbers:
// the median and 90th-percentile round and the peak RSS, which on this
// host spread too wide to be held to a bound, and numbers only some
// workloads have. They keep bounds for -compare.
var perLayer = []metricDef{
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "round_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_latency_p50_us", Unit: "us", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "sim_latency_p99_us", Unit: "us", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "sim_net_ms_per_round", Unit: "ms", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "wire_bytes_per_item", Unit: "B", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0, Exact: true},

	{Name: "serde.encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "serde.decode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "serde.bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "serde.encode_allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "serde.decode_allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "serde.col_encode_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "serde.col_decode_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "serde.col_filter_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "serde.col_filter_evals_per_val", Unit: "count", Better: "lower"},

	{Name: "compress.lz_compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lz_decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.lz_ratio", Unit: "ratio", Better: "lower"},

	{Name: "shuffle.sort_write_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "shuffle.read_merge_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "shuffle.spills", Unit: "count", Better: "lower"},
	{Name: "shuffle.hash_write_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "shuffle.combine_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shuffle.read_unsorted_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "shuffle.wire_bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "shuffle.partition_skew", Unit: "ratio", Better: "lower"},

	{Name: "netsim.cost_call_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.sim_fetch_mean_us", Unit: "us", Better: "lower"},
	{Name: "netsim.sim_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "netsim.fetches_per_round", Unit: "count", Better: "lower"},

	{Name: "core.empty_task_us", Unit: "us", Better: "lower"},
	{Name: "core.row_box_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "core.tasks_per_round", Unit: "count", Better: "lower"},
	{Name: "core.stages_per_round", Unit: "count", Better: "lower"},
	{Name: "core.stage_map_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage_reduce_ms", Unit: "ms", Better: "lower"},

	{Name: "table.build_columnar_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "table.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "table.hash_join_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "table.group_agg_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "query.plan_us_per_query", Unit: "us", Better: "lower"},
	{Name: "query.exec_ms.q1", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q2", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q3", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q4", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q5", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q6", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q7", Unit: "ms", Better: "lower"},
	{Name: "query.exec_ms.q8", Unit: "ms", Better: "lower"},
	{Name: "query.rows_scanned_per_result_row", Unit: "ratio", Better: "lower"},
	{Name: "query.bytes_decoded_share", Unit: "ratio", Better: "lower"},

	{Name: "stream.send_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.source_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.checkpoint_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "stream.checkpoint_bytes_mean", Unit: "B", Better: "lower"},
	{Name: "stream.no_ckpt_throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.results_per_event", Unit: "ratio", Better: "lower"},
	{Name: "stream.late_dropped", Unit: "count", Better: "lower"},
	{Name: "stream.sojourn_p50_us", Unit: "us", Better: "lower"},

	{Name: "kvstore.ring_get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.ring_put_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.ring_read_repairs", Unit: "count", Better: "lower"},
	{Name: "kvstore.ring_sim_get_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.ring_sim_put_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.sharded_get_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.sharded_put_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.sharded_txn_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.sharded_txn_retries", Unit: "count", Better: "lower"},
	{Name: "kvstore.sharded_proposals_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.sharded_slowdown_ratio", Unit: "ratio", Better: "lower"},

	{Name: "ha.propose_us", Unit: "us", Better: "lower"},
	{Name: "ha.propose_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "ha.ticks_per_propose", Unit: "count", Better: "lower"},
	{Name: "consensus.entries_per_propose", Unit: "count", Better: "lower"},
	{Name: "consensus.compactions", Unit: "count", Better: "lower"},

	{Name: "dfs.write_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "dfs.read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "dfs.stored_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// workloads, in the fixed order a full run uses. Later issues refer to
// these names.
var workloads = []workloadDef{
	{
		name: "sort_wide", item: "record", prefix: 8, parallel: true, setup: setupSort,
		why: "range-partitioned lz-compressed sort of 100 B records: serde, shuffle sort-merge, compress and netsim do the work; core and user code do little",
	},
	{
		name: "agg_combine", item: "record", prefix: 4, parallel: true, setup: setupAgg,
		why: "hash shuffle with a map-side combiner, no codec, almost nothing on the wire: core row boxing and the combiner dominate; bypasses compress and sort-merge",
	},
	{
		name: "sql_star", item: "query", prefix: 4, parallel: true, setup: setupSQL,
		why: "eight pinned SQL texts over a star schema: the only workload on query, table and the columnar serde filters",
	},
	{
		name: "stream_window", item: "event", prefix: 100, p90: true, parallel: true, setup: setupStream,
		why: "checkpointed tumbling-window stream of out-of-order events: the only workload on stream; bypasses serde, shuffle and core",
	},
	{
		name: "kv_mix", item: "op", prefix: 40, p90: true, setup: setupKVMix,
		why: "zipf 80/20 get/put on the quorum ring store: wall is netsim.Cost calls and replica maps; carries the simulated client latency",
	},
	{
		name: "kv_txn", item: "op", prefix: 40, p90: true, setup: setupKVTxn,
		why: "2-key transactions, puts and gets on the range-sharded store: every op is Raft proposals through ha and consensus",
	},
}

func printMetrics(rec *record, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-14s %-36s %16.6g %s\n", rec.Workload, d.Name, rec.Metrics[d.Name], d.Unit)
	}
}
