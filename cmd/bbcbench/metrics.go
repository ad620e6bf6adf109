package main

import (
	"runtime"
	"strings"

	"bbc/internal/obs"
)

// metricDef declares one metric as BENCHMARK.json does. Bound is the
// share of the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are measured with tracing off, on every workload. An
// operation is one scan, one merge, one job or one grid. The bounds are
// as wide as the measured run-to-run spread on a shared 2-vCPU machine
// requires (see README.md).
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "late_op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// selfLayers are the layers the traced run charges time to.
var selfLayers = []string{"client", "core", "sweep", "fleet", "http", "serve", "store", "fs", "runctl"}

// higherIsBetter are the per-layer metrics an improvement raises; for
// every other one (times, shares of time, work per result) lower is
// better.
var higherIsBetter = map[string]bool{
	"core.parallel_speedup":             true,
	"core.oracle_cache_hit_ratio":       true,
	"graph.bfs_batch_sources_per_build": true,
	"serve.dedup_ratio":                 true,
}

// layerMetrics are reported by the traced run of every workload. A
// metric of a layer the workload never reaches reads 0.
var layerMetrics = func() []metricDef {
	defs := layerNames()
	for i := range defs {
		defs[i].Better = "lower"
		if higherIsBetter[defs[i].Name] {
			defs[i].Better = "higher"
		}
	}
	return defs
}()

func layerNames() []metricDef {
	defs := []metricDef{
		// Probes: public calls on fixed inputs, outside the timed window.
		{Name: "graph.bfs_batch_ns", Unit: "ns"},
		{Name: "core.oracle_build_ns.n032", Unit: "ns"},
		{Name: "core.oracle_build_ns.n064", Unit: "ns"},
		{Name: "core.oracle_build_ns.n128", Unit: "ns"},
		{Name: "core.oracle_build_ns.gadget", Unit: "ns"},
		{Name: "core.has_improvement_ns.gadget", Unit: "ns"},
		{Name: "core.serial_scan_s", Unit: "s"},
		{Name: "core.parallel_speedup", Unit: "x"},
		{Name: "obs.counter_overhead_share", Unit: "share"},
		// The program's own counters over the untraced phase.
		{Name: "graph.bfs_batch_waves_per_build", Unit: "waves/build"},
		{Name: "graph.bfs_batch_sources_per_build", Unit: "sources/build"},
		{Name: "core.oracle_builds_per_kprofile", Unit: "builds/kprofile"},
		{Name: "core.oracle_cache_hit_ratio", Unit: "ratio"},
		{Name: "core.stability_checks_per_profile", Unit: "checks/profile"},
		{Name: "core.oracle_build_share", Unit: "share"},
		{Name: "core.eval_p50_ns", Unit: "ns"},
		{Name: "core.profiles_checked_per_op", Unit: "profiles/op"},
		{Name: "oracle.best_exact_leaves_per_op", Unit: "leaves/op"},
		{Name: "dynamics.steps_per_op", Unit: "steps/op"},
		{Name: "runtime.alloc_bytes_per_op", Unit: "B/op"},
		{Name: "runtime.gc_cycles_per_op", Unit: "cycles/op"},
		// The traced phase.
		{Name: "obs.trace_overhead_share", Unit: "share"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{Name: l + ".self_share", Unit: "share"})
	}
	return append(defs,
		metricDef{Name: "trace.unattributed_share", Unit: "share"},
		metricDef{Name: "serve.submit_ms_p50", Unit: "ms/request"},
		metricDef{Name: "serve.queue_ms_p50", Unit: "ms/job"},
		metricDef{Name: "serve.run_ms_p50", Unit: "ms/job"},
		metricDef{Name: "serve.notify_ms_p50", Unit: "ms/job"},
		metricDef{Name: "serve.job_p99_ms", Unit: "ms/job"},
		metricDef{Name: "serve.dedup_ratio", Unit: "ratio"},
		metricDef{Name: "serve.refused_ratio", Unit: "ratio"},
		metricDef{Name: "serve.worker_peak_rss_mb", Unit: "MiB"},
		metricDef{Name: "store.call_ms_p50", Unit: "ms/call"},
		metricDef{Name: "store.call_ms_p99", Unit: "ms/call"},
		metricDef{Name: "store.calls_per_job", Unit: "calls/job"},
		metricDef{Name: "store.busy_share", Unit: "share"},
		metricDef{Name: "store.fsync_ms_p50", Unit: "ms/fsync"},
		metricDef{Name: "store.fsyncs_per_job", Unit: "fsyncs/job"},
		metricDef{Name: "fleet.worker_idle_share", Unit: "share"},
		metricDef{Name: "fleet.http_requests_per_merge", Unit: "requests/merge"},
		metricDef{Name: "fleet.http_ms_p50", Unit: "ms/request"},
		metricDef{Name: "fleet.shard_run_ms_p50", Unit: "ms/shard"},
		metricDef{Name: "fleet.retries_per_merge", Unit: "retries/merge"},
		metricDef{Name: "runctl.lease_checkpoint_ms_p50", Unit: "ms/save"},
		metricDef{Name: "sweep.tuple_ms_p50.enumerate", Unit: "ms/tuple"},
		metricDef{Name: "sweep.tuple_ms_p50.dynamics", Unit: "ms/tuple"},
		metricDef{Name: "sweep.tuple_ms_p50.experiment", Unit: "ms/tuple"},
	)
}

// snapshot is the program's counters and histograms at one moment.
type snapshot struct {
	counters map[string]int64
	hists    map[string]obs.Histogram
}

func localSnapshot(reg *obs.Registry) snapshot {
	return snapshot{counters: reg.Snapshot(), hists: reg.HistSnapshot()}
}

// add folds another registry's snapshot into s (the fleet's workers each
// have their own).
func (s *snapshot) add(o snapshot) {
	s.counters = mergeCounters(s.counters, o.counters, 1)
	s.hists = mergeHists(s.hists, o.hists, 1)
}

// since is s minus an earlier snapshot of the same registries.
func (s snapshot) since(before snapshot) snapshot {
	return snapshot{
		counters: mergeCounters(s.counters, before.counters, -1),
		hists:    mergeHists(s.hists, before.hists, -1),
	}
}

func mergeCounters(a, b map[string]int64, sign int64) map[string]int64 {
	out := make(map[string]int64, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += sign * v
	}
	return out
}

func mergeHists(a, b map[string]obs.Histogram, sign int64) map[string]obs.Histogram {
	out := make(map[string]obs.Histogram, len(a))
	for k, h := range a {
		h.Counts = append([]int64(nil), h.Counts...)
		out[k] = h
	}
	for k, h := range b {
		acc, ok := out[k]
		if !ok {
			acc = obs.Histogram{Bounds: h.Bounds, Counts: make([]int64, len(h.Counts))}
		}
		acc.Count += sign * h.Count
		acc.Sum += sign * h.Sum
		for i := range acc.Counts {
			if i < len(h.Counts) {
				acc.Counts[i] += sign * h.Counts[i]
			}
		}
		out[k] = acc
	}
	return out
}

func (s snapshot) get(m obs.Metric) float64 { return float64(s.counters[m.String()]) }

// e2eValues computes the end-to-end metrics of the untraced phase, each
// with its sample count.
func e2eValues(setups []float64, ph *phase, rss []float64) map[string]metricValue {
	v := func(x float64, n int) metricValue { return metricValue{Value: x, Samples: n} }
	late := ph.lateHalf()
	return map[string]metricValue{
		"setup_s":        v(median(setups), len(setups)),
		"ops_per_s":      v(ph.perSecond(), ph.ops()),
		"op_p50_ms":      v(median(ph.lat), ph.ops()),
		"late_op_p50_ms": v(median(late), len(late)),
		"rss_mb":         v(median(rss), len(rss)),
	}
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	workload string
	base     *phase   // untraced phase
	traced   *phase   // traced phase
	counts   snapshot // program counters over the untraced phase
	mem      runtime.MemStats
	threads  int // goroutines running engine code at once
	tr       *tracer
	table    *layerTable
	probes   map[string]float64
}

// layerValues computes every per-layer metric.
func layerValues(in layerInputs) map[string]float64 {
	v := map[string]float64{}
	for k, x := range in.probes {
		v[k] = x
	}
	d, base := in.counts, in.base
	ops := float64(base.ops())
	builds := d.get(obs.MOracleBuild)
	profiles := d.get(obs.MProfilesChecked)
	v["graph.bfs_batch_waves_per_build"] = ratio(d.get(obs.MBFSBatchWaves), builds)
	v["graph.bfs_batch_sources_per_build"] = ratio(d.get(obs.MBFSBatchSources), builds)
	v["core.oracle_builds_per_kprofile"] = ratio(builds, profiles/1000)
	v["core.oracle_cache_hit_ratio"] = ratio(d.get(obs.MOracleCacheHits), d.get(obs.MOracleCacheHits)+builds)
	v["core.stability_checks_per_profile"] = ratio(d.get(obs.MStabilityChecks), profiles)
	v["core.oracle_build_share"] = ratio(d.get(obs.MOracleBuildNanos)/1e9, base.wall().Seconds()*float64(in.threads))
	v["core.eval_p50_ns"] = d.hists[obs.HProfileEval.String()].Quantile(0.5)
	v["core.profiles_checked_per_op"] = ratio(profiles, ops)
	v["oracle.best_exact_leaves_per_op"] = ratio(d.get(obs.MBestExactLeaves), ops)
	v["dynamics.steps_per_op"] = ratio(d.get(obs.MWalkSteps), ops)
	v["runtime.alloc_bytes_per_op"] = ratio(float64(in.mem.TotalAlloc), ops)
	v["runtime.gc_cycles_per_op"] = ratio(float64(in.mem.NumGC), ops)

	v["obs.trace_overhead_share"] = ratio(median(in.traced.lat), median(base.lat)) - 1
	for _, l := range selfLayers {
		v[l+".self_share"] = ratio(in.table.SelfS[l], in.table.TrackWallS)
	}
	v["trace.unattributed_share"] = ratio(in.table.UnattributedS, in.table.TrackWallS)

	spans := spanDurations(in.tr)
	tops := float64(in.traced.ops())
	v["serve.submit_ms_p50"] = median(spans["http.POST /v1/jobs"])
	v["serve.queue_ms_p50"] = median(base.samples["queue_ms"])
	v["serve.run_ms_p50"] = median(base.samples["run_ms"])
	v["serve.notify_ms_p50"] = median(base.samples["notify_ms"])
	v["serve.dedup_ratio"] = ratio(base.counts["deduped"], float64(base.attempted))
	v["serve.refused_ratio"] = ratio(base.counts["refused"], float64(base.attempted))
	v["serve.worker_peak_rss_mb"] = maxOf(base.samples["worker_peak_rss_mb"])
	if in.workload == "serve-jobs" {
		v["serve.job_p99_ms"] = quantile(base.lat, 0.99)
	}

	var storeCalls, fsyncs []float64
	for name, ds := range spans {
		if strings.HasPrefix(name, "store.") {
			storeCalls = append(storeCalls, ds...)
		}
	}
	fsyncs = spans["fs.sync"]
	v["store.call_ms_p50"] = median(storeCalls)
	v["store.call_ms_p99"] = quantile(storeCalls, 0.99)
	v["store.calls_per_job"] = ratio(float64(len(storeCalls)), tops)
	v["store.busy_share"] = ratio(sum(storeCalls)/1e3, in.traced.wall().Seconds())
	v["store.fsync_ms_p50"] = median(fsyncs)
	v["store.fsyncs_per_job"] = ratio(float64(len(fsyncs)), tops)

	if in.workload == "fleet-gadget" {
		var hops []float64
		for name, ds := range spans {
			if strings.HasPrefix(name, "http.") {
				hops = append(hops, ds...)
			}
		}
		runs := spans["shard.run"]
		v["fleet.worker_idle_share"] = 1 - ratio(sum(runs)/1e3, in.traced.wall().Seconds()*fleetWorkers)
		v["fleet.http_requests_per_merge"] = ratio(float64(len(hops)), tops)
		v["fleet.http_ms_p50"] = median(hops)
		v["fleet.shard_run_ms_p50"] = median(runs)
		v["fleet.retries_per_merge"] = ratio(d.get(obs.MFleetRetries), ops)
		v["runctl.lease_checkpoint_ms_p50"] = median(spans["runctl.save"])
	}
	v["sweep.tuple_ms_p50.enumerate"] = median(spans["tuple.enumerate"])
	v["sweep.tuple_ms_p50.dynamics"] = median(spans["tuple.dynamics"])
	v["sweep.tuple_ms_p50.experiment"] = median(spans["tuple.experiment"])

	out := map[string]float64{}
	for _, m := range layerMetrics {
		out[m.Name] = v[m.Name]
	}
	return out
}

// spanDurations groups the placed spans' durations (ms) by name.
func spanDurations(tr *tracer) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range tr.spans {
		if s.track >= 0 && !s.end.IsZero() {
			out[s.name] = append(out[s.name], ms(s.end.Sub(s.start)))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
