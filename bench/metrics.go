package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json repeats these lists;
// the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off. failed_share, the fourth
// end-to-end figure, travels as the result's attempted and failed counts.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer come from the traced pass. Every traced pass reports all of
// them: a count or ratio a workload has no part in is 0 there, and every
// time is measured in every pass (the probe suite is workload-independent).
var perLayer = []metricDef{
	// The traced iteration of the workload itself.
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.cpu_s", "s"},
	{"simnet.events", "count"},
	{"simnet.events_per_s", "1/s"},
	{"experiment.fig8a.wall_share", "ratio"},
	{"experiment.fig8b.wall_share", "ratio"},
	{"experiment.fig9.wall_share", "ratio"},
	{"experiment.table5.wall_share", "ratio"},
	{"experiment.fig11a.wall_share", "ratio"},
	{"experiment.table8.wall_share", "ratio"},
	{"experiment.fig11b.wall_share", "ratio"},
	{"chaos.soak_wall_share", "ratio"},
	{"chaos.reconcile_wall_share", "ratio"},
	{"chaos.retries", "count"},
	{"chaos.reallocations", "count"},
	{"chaos.takeovers", "count"},
	{"chaos.violations", "count"},
	{"comm.retry_share", "ratio"},
	{"reconcile.rounds", "count"},
	{"reconcile.actions", "count"},
	{"simnet.shard_event_inflation", "ratio"},
	{"simnet.shard_speedup_vs_1", "ratio"},
	{"simnet.shard_speedup_vs_serial", "ratio"},
	{"simnet.shard_cores_busy", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
	// The probe suite.
	{"simnet.step_ns", "ns"},
	{"cluster.build_us_per_node", "us"},
	{"cluster.send_ns", "ns"},
	{"cluster.events_per_msg", "ratio"},
	{"comm.star_ns_per_target", "ns"},
	{"comm.ktree_ns_per_target", "ns"},
	{"comm.fptree_ns_per_target", "ns"},
	{"comm.star_ns_per_target_fail10", "ns"},
	{"comm.ktree_ns_per_target_fail10", "ns"},
	{"comm.fptree_ns_per_target_fail10", "ns"},
	{"comm.msgs_per_target", "ratio"},
	{"fptree.build_ns_per_node", "ns"},
	{"core.bcast_ns_per_target", "ns"},
	{"core.subtasks", "count"},
	{"trace.generate_us_per_job", "us"},
	{"sched.replay_us_per_job", "us"},
	{"sched.with_estimator_us_per_job", "us"},
	{"estimate.framework_us_per_job", "us"},
	{"estimate.irpa_us_per_job", "us"},
	{"estimate.svm_us_per_job", "us"},
	{"estimate.rf_us_per_job", "us"},
	{"estimate.generations", "count"},
	{"estimate.model_used_share", "ratio"},
	{"estimate.predict_us_p50", "us"},
	{"estimate.predict_us_p99", "us"},
	{"mlkit.svr_fit_ms", "ms"},
	{"mlkit.svr_iters", "count"},
	{"mlkit.kmeans_fit_ms", "ms"},
	{"mlkit.forest_fit_ms", "ms"},
	{"mlkit.tobit_fit_ms", "ms"},
	{"mlkit.bayes_fit_ms", "ms"},
	{"obs.sim_trace_overhead_share", "ratio"},
	{"critpath.analyze_ms", "ms"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0,1]); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
