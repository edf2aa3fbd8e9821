package main

import (
	"fmt"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract with BENCHMARK.json: the smoke
// test checks they list exactly the names and units the file lists,
// and that every workload emits every entry with a finite value.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs. Every workload reports all of them: each workload
// answers both questions the system serves — "what are the top-k
// entities?" (a filter pass) and "which entity is this record?" (a
// point lookup) — in proportions that load different layers.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"filter_s", "s"},
	{"heap_live_mb", "MB"},
	{"topk_f1", "ratio"},
	{"query_p50_us", "us"},
	{"query_p95_us", "us"},
}

// perLayer are the traced run's metrics of single layers, named
// <layer>.<metric>. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"dsio.col_write_s", "s"},
	{"dsio.col_open_ms", "ms"},
	{"dsio.col_bytes_per_record", "B"},
	{"design.plan_ms", "ms"},
	{"cache.ensure_ns_per_record", "ns"},
	{"cache.sig_elems_hashed", "count"},
	{"cache.hash_evals", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.mb", "MB"},
	{"hash.wall_ms", "ms"},
	{"hash.work_ms", "ms"},
	{"hash.rounds", "count"},
	{"hash.ns_per_record_round", "ns"},
	{"hash.table_ns_per_record", "ns"},
	{"hash.bucket_collisions", "count"},
	{"hash.merge_ratio", "ratio"},
	{"hash.alloc_mb", "MB"},
	{"filter.self_ms", "ms"},
	{"filter.rounds", "count"},
	{"pairwise.wall_ms", "ms"},
	{"pairwise.pairs", "count"},
	{"pairwise.ns_per_pair", "ns"},
	{"kernel.match_ns_per_pair", "ns"},
	{"kernel.prefilter_reject_ratio", "ratio"},
	{"kernel.early_exit_ratio", "ratio"},
	{"shard.busy_max_ms", "ms"},
	{"shard.busy_min_ms", "ms"},
	{"shard.reconcile_ms", "ms"},
	{"shard.boundary_keys", "count"},
	{"shard.boundary_pairs", "count"},
	{"shard.reconcile_merge_ratio", "ratio"},
	{"shard.hash_overlap", "ratio"},
	{"query.probes_per_lookup", "count"},
	{"query.candidates_per_lookup", "count"},
	{"query.match_ratio", "ratio"},
	{"query.service_us", "us"},
	{"snapio.snapshot_ms", "ms"},
	{"snapio.restore_ms", "ms"},
	{"snapio.bytes_per_record", "B"},
	{"snapio.checkpoints", "count"},
	{"server.topk_p50_ms", "ms"},
	{"server.ingest_p50_ms", "ms"},
	{"server.ingest_p95_ms", "ms"},
	{"server.query_p99_us.r150", "us"},
	{"server.query_p99_us.r300", "us"},
	{"server.query_p99_us.r600", "us"},
	{"server.query_p99_us.r1200", "us"},
	{"server.max_qps", "1/s"},
	{"server.read_only_ratio", "ratio"},
	{"server.refused_429", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.alloc_mb", "MB"},
	{"gen.lateness_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// idle reports 0 for every per-layer metric under the given layer
// prefixes (e.g. "shard."): layers the workload never calls.
func (r *result) idle(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.metrics[d.name] = metric{Unit: d.unit}
			}
		}
	}
}

// unitOf returns a metric's unit (the tables are the single
// source of units inside the program).
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	panic(fmt.Sprintf("bench: metric %q is in neither table", name))
}

// put sets a table metric, taking its unit from the table.
func (r *result) put(name string, v float64) { r.putN(name, v, 0) }

// putN is put for a statistic over samples.
func (r *result) putN(name string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}
