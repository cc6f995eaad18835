package main

// metricDef names a reported metric; BENCHMARK.json lists the same set (a
// test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed with -trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"pass_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// experimentSteps are the `hetero all` steps the traced run times: those
// taking ~1% of a pass or more.
var experimentSteps = []string{"variance", "threshold", "predictors", "moments", "jitter", "execute", "replicate"}

// perLayerMetrics are printed with -trace 1.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		// /v1/statz deltas over the timed phase.
		{"api.cache.hit_rate", "ratio", "higher"},
		{"api.cache.raw_hit_share", "ratio", "higher"},
		{"api.cache.evicted_per_op", "1/op", "lower"},
		{"api.cache.shard_resizes", "count", "lower"},
		{"api.evals_per_op", "1/op", "lower"},
		{"api.shed", "count", "lower"},
		{"api.deadlines", "count", "lower"},
		{"api.panics", "count", "lower"},
		{"api.batch.streamed_share", "ratio", "higher"},
		{"spill.hit_rate", "ratio", "higher"},
		{"spill.writes_per_op", "1/op", "lower"},
		{"spill.dropped_write_frac", "ratio", "lower"},
		{"spill.failed_writes", "count", "lower"},
		{"spill.corrupt", "count", "lower"},
		{"spill.compact_deferred", "count", "lower"},
		{"spill.compacted_bytes", "bytes", "lower"},
		{"spill.retired_segments", "count", "lower"},
		{"spill.disk_bytes", "bytes", "lower"},
		// Traced in-process run: self times of public calls.
		{"http.overhead_us.p50", "us", "lower"},
		{"api.measure_query_us.hit.p50", "us", "lower"},
		{"api.measure_query_us.hit.p99", "us", "lower"},
		{"api.measure_query_us.miss.p50", "us", "lower"},
		{"api.measure_query_us.miss.p99", "us", "lower"},
		{"api.measure_self_us.p50", "us", "lower"},
		{"api.canonical_key_ns_per_rho", "ns/rho", "lower"},
		{"incr.measure_profile_ns_per_rho.small", "ns/rho", "lower"},
		{"incr.measure_profile_ns_per_rho.large", "ns/rho", "lower"},
		{"incr.schedule_batch_us", "us", "lower"},
		{"incr.batch_measure_full_ms", "ms", "lower"},
		{"api.batch_stream_ms.fresh", "ms", "lower"},
		{"api.batch_stream_ms.spill", "ms", "lower"},
		{"spill.get_us.p50", "us", "lower"},
		{"spill.put_us.p50", "us", "lower"},
		{"spill.stream_mb_s", "MB/s", "higher"},
		{"spill.append_mb_s", "MB/s", "higher"},
	}
	for _, form := range coreForms {
		for _, n := range coreSizes {
			defs = append(defs, metricDef{coreMetric(form.name, n), "ns/rho", "lower"})
		}
	}
	for _, s := range experimentSteps {
		defs = append(defs, metricDef{"experiments." + s + "_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"bench.gen_cpu_share", "ratio", "lower"},
		metricDef{"host.steal_ticks", "count", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()
