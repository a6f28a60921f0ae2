package main

// metricDef names one reported metric with its unit and which direction
// is better; BENCHMARK.json lists the same metrics.
type metricDef struct{ name, unit, better string }

// endToEnd are the end-to-end metrics that held steady across runs on a
// shared machine: printed by every untraced run and bounded in
// BENCHMARK.json. An untraced run also prints sustained_pkg_s,
// throughput_pkg_s and the p50 and p99 latency at both fixed rates
// without a bound: their run-to-run spread there exceeded any bound the
// benchmark may set (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_kpkg", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of the traced run. A layer that a
// workload's path does not cross reports 0.
var perLayer = []metricDef{
	{"trace.decode_ns_per_rec", "ns", "lower"},
	{"signature.encode_ns_per_pkg", "ns", "lower"},
	{"core.classify_ns_per_pkg", "ns", "lower"},
	{"core.self_ns_per_pkg", "ns", "lower"},
	{"stage.bloom.check_ns_per_pkg", "ns", "lower"},
	{"stage.bloom.advance_ns_per_pkg", "ns", "lower"},
	{"stage.lstm.check_ns_per_pkg", "ns", "lower"},
	{"stage.lstm.advance_ns_per_pkg", "ns", "lower"},
	{"stage.pca.check_ns_per_pkg", "ns", "lower"},
	{"stage.pca.advance_ns_per_pkg", "ns", "lower"},
	{"core.level_share.clean", "share", "higher"},
	{"core.level_share.bloom", "share", "lower"},
	{"core.level_share.lstm", "share", "lower"},
	{"core.level_share.pca", "share", "lower"},
	{"engine.advance_batch_mean", "count", "higher"},
	{"engine.check_batch_mean", "count", "higher"},
	{"engine.queue_depth_mean", "count", "lower"},
	{"engine.submit_blocked_ms", "ms", "lower"},
	{"nn.step_ns.h32.f64.w1", "ns", "lower"},
	{"nn.step_batch_ns.h256.f64.wN", "ns", "lower"},
	{"nn.step_batch_ns.h256.f32.wN", "ns", "lower"},
	{"mathx.flops_per_pkg", "flop", "lower"},
	{"mathx.bytes_per_pkg", "B", "lower"},
	{"serve.send_to_classified_ms.p50", "ms", "lower"},
	{"serve.send_to_classified_ms.p99", "ms", "lower"},
	{"serve.classified_to_recv_ms.p50", "ms", "lower"},
	{"serve.classified_to_recv_ms.p99", "ms", "lower"},
	{"serve.ingest_burst_mean", "count", "higher"},
	{"serve.publish_batch_mean", "count", "higher"},
	{"serve.event_bytes_mean", "B", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.subscriber_drops", "count", "lower"},
	{"runtime.alloc_bytes_per_pkg", "B", "lower"},
	{"runtime.gc_cycles_per_mpkg", "count", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"tracing.overhead_lat_p50_ms.high", "ms", "lower"},
	{"tracing.overhead_cpu_ms_per_kpkg", "ms", "lower"},
}

// printedOnly are the end-to-end metrics an untraced run prints without a
// bound.
var printedOnly = []metricDef{
	{"sustained_pkg_s", "pkg/s", "higher"},
	{"throughput_pkg_s", "pkg/s", "higher"},
	{"lat_p50_ms.low", "ms", "lower"},
	{"lat_p99_ms.low", "ms", "lower"},
	{"lat_p50_ms.high", "ms", "lower"},
	{"lat_p99_ms.high", "ms", "lower"},
}

// defOf returns a metric's definition.
func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, printedOnly, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// unitOf is a metric's unit.
func unitOf(name string) string {
	d, _ := defOf(name)
	return d.unit
}

// betterOf is a metric's better direction.
func betterOf(name string) string {
	d, _ := defOf(name)
	return d.better
}
