package obs

import (
	"time"
)

// HMetric identifies one fixed-boundary histogram in a Registry. The
// *_ns metrics record latencies in nanoseconds; the rest record
// dimensionless work sizes.
type HMetric int

const (
	// HOracleBuild is the latency of one best-response oracle build (the
	// n−1 node-deleted traversals). Builds on a core.EvalScratch are
	// sampled 1 in 64; standalone builds are all observed.
	HOracleBuild HMetric = iota
	// HProfileEval is the latency of one whole-profile stability check
	// during NE enumeration, sampled (1 in 64) to keep the scan hot path
	// free of extra clock reads.
	HProfileEval
	// HBFSWave is the maximum frontier width (nodes at one distance
	// level) of a unit-length BFS — the work-shape signal behind the
	// ROADMAP's bit-parallel BFS item.
	HBFSWave
	// HServeQueueWait is how long a serve job sat queued before a worker
	// picked it up.
	HServeQueueWait
	// HServeHTTP is the wall time of one bbcserved HTTP request.
	HServeHTTP

	hMetricCount // sentinel, keep last
)

// histNames are the stable external names used in snapshots, journal
// run_status records and Prometheus exposition (after unit mangling).
// Renaming one is a schema change.
var histNames = [hMetricCount]string{
	HOracleBuild:    "oracle.build_duration_ns",
	HProfileEval:    "core.profile_eval_ns",
	HBFSWave:        "graph.bfs_wave_width",
	HServeQueueWait: "serve.queue_wait_ns",
	HServeHTTP:      "serve.http_request_ns",
}

// histHelp is the one-line exposition help per histogram.
var histHelp = [hMetricCount]string{
	HOracleBuild:    "Latency of one best-response oracle build (sampled 1/64 on a scan scratch).",
	HProfileEval:    "Latency of one whole-profile stability check (sampled 1/64).",
	HBFSWave:        "Maximum BFS frontier width (nodes at one distance level).",
	HServeQueueWait: "Time a job spent queued before a worker picked it up.",
	HServeHTTP:      "Wall time of one HTTP request.",
}

// Bucket boundaries. Values ≤ bounds[i] land in bucket i; anything above
// the last bound lands in the overflow bucket. Boundaries are fixed per
// metric so histograms merge across runs and machines.
var (
	// evalNanoBounds spans sub-microsecond oracle evaluations up to
	// multi-second stalls (the PR 3 hot path runs ~500ns/profile).
	evalNanoBounds = []int64{
		250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
		100_000, 250_000, 500_000, 1e6, 5e6, 25e6, 100e6, 1e9, 10e9,
	}
	// waitNanoBounds spans scheduling-scale waits: 50µs to two minutes.
	waitNanoBounds = []int64{
		50_000, 250_000, 1e6, 5e6, 25e6, 100e6, 500e6, 1e9, 5e9, 30e9, 120e9,
	}
	// widthBounds is power-of-two BFS frontier widths.
	widthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
)

var histBounds = [hMetricCount][]int64{
	HOracleBuild:    evalNanoBounds,
	HProfileEval:    evalNanoBounds,
	HBFSWave:        widthBounds,
	HServeQueueWait: waitNanoBounds,
	HServeHTTP:      waitNanoBounds,
}

// histMaxBuckets sizes the fixed per-metric bucket arrays inside
// Registry: the largest bounds slice plus one overflow bucket. Fixed
// arrays keep the zero-value Registry ready to use with no lazy
// initialization on the Observe path.
const histMaxBuckets = 20

func init() {
	for h, b := range histBounds {
		if len(b)+1 > histMaxBuckets {
			panic("obs: histMaxBuckets too small for " + histNames[h])
		}
	}
}

// String returns the histogram's stable external name.
func (h HMetric) String() string {
	if h < 0 || h >= hMetricCount {
		return "unknown"
	}
	return histNames[h]
}

// HMetrics returns every defined histogram metric, in declaration order.
func HMetrics() []HMetric {
	out := make([]HMetric, hMetricCount)
	for i := range out {
		out[i] = HMetric(i)
	}
	return out
}

// Observe records one value into the histogram. No-op on a nil registry.
// The cost when observation is on is a short binary search plus three
// atomic adds; there is no allocation on this path.
func (r *Registry) Observe(h HMetric, v int64) {
	if r == nil {
		return
	}
	r.hbuckets[h][bucketOf(h, v)].Add(1)
	r.hsum[h].Add(v)
	r.hcount[h].Add(1)
}

// bucketOf returns the index of the bucket v lands in: the first bound
// ≥ v, or the overflow bucket. Bounds are short (≤17), so the binary
// search is a handful of compares.
func bucketOf(h HMetric, v int64) int {
	bounds := histBounds[h]
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ObserveSince records the nanoseconds elapsed since the Started token
// into a latency histogram. No-op on a nil registry or a zero token, so
// it pairs with Registry.Started exactly like ElapsedSince.
func (r *Registry) ObserveSince(h HMetric, t0 time.Time) {
	if r == nil || t0.IsZero() {
		return
	}
	r.Observe(h, time.Since(t0).Nanoseconds())
}

// Histogram is the read-side snapshot of one fixed-boundary histogram:
// cumulative-free bucket counts (Counts[i] pairs with Bounds[i]; the
// final entry is the overflow bucket) plus the interpolated quantiles
// dashboards actually want.
type Histogram struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// within the owning bucket. Values in the overflow bucket report the
// last finite bound — an understatement, but a stable one.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			var lo, hi float64
			switch {
			case i >= len(h.Bounds): // overflow bucket
				return float64(h.Bounds[len(h.Bounds)-1])
			case i == 0:
				lo, hi = 0, float64(h.Bounds[0])
			default:
				lo, hi = float64(h.Bounds[i-1]), float64(h.Bounds[i])
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// HistogramFor snapshots one histogram. A nil registry returns the
// zero Histogram.
func (r *Registry) HistogramFor(h HMetric) Histogram {
	if r == nil || h < 0 || h >= hMetricCount {
		return Histogram{}
	}
	bounds := histBounds[h]
	out := Histogram{
		Count:  r.hcount[h].Load(),
		Sum:    r.hsum[h].Load(),
		Bounds: bounds,
		Counts: make([]int64, len(bounds)+1),
	}
	for i := range out.Counts {
		out.Counts[i] = r.hbuckets[h][i].Load()
	}
	out.P50 = out.Quantile(0.50)
	out.P90 = out.Quantile(0.90)
	out.P99 = out.Quantile(0.99)
	return out
}

// HistSnapshot returns the nonempty histograms keyed by stable name.
// A nil registry (or one with no observations) snapshots to nil.
func (r *Registry) HistSnapshot() map[string]Histogram {
	if r == nil {
		return nil
	}
	var out map[string]Histogram
	for h := HMetric(0); h < hMetricCount; h++ {
		if r.hcount[h].Load() == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]Histogram)
		}
		out[histNames[h]] = r.HistogramFor(h)
	}
	return out
}

// resetHists zeroes every histogram; called from Registry.Reset.
func (r *Registry) resetHists() {
	for h := range r.hbuckets {
		for i := range r.hbuckets[h] {
			r.hbuckets[h][i].Store(0)
		}
		r.hsum[h].Store(0)
		r.hcount[h].Store(0)
	}
}
