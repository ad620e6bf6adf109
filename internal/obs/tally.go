package obs

// Tally is a counter block that one goroutine owns: plain int64 counters
// and histogram buckets keyed by the Registry's metric ids. A hot loop
// counts into it with ordinary adds instead of atomic adds on the
// Registry's shared array, which every worker of a parallel scan would
// otherwise write. Flush moves the counts into a Registry; until then
// they are invisible to readers, so owners flush at fixed points (every
// few thousand iterations, before checkpoints, on return) to keep totals
// exact and live readers at most one period behind.
//
// A nil *Tally counts straight into the installed registry (Global), so
// code that may or may not own a block makes the same calls either way.
// A Tally is not safe for concurrent use; the zero value is ready to use.
type Tally struct {
	counters [metricCount]int64
	hbuckets [hMetricCount][histMaxBuckets]int64
	hsum     [hMetricCount]int64
	hcount   [hMetricCount]int64
}

// Inc adds 1 to the metric.
func (t *Tally) Inc(m Metric) {
	if t == nil {
		Global().Inc(m)
		return
	}
	t.counters[m]++
}

// Add adds n to the metric.
func (t *Tally) Add(m Metric, n int64) {
	if t == nil {
		Global().Add(m, n)
		return
	}
	t.counters[m] += n
}

// Observe records one value into the histogram.
func (t *Tally) Observe(h HMetric, v int64) {
	if t == nil {
		Global().Observe(h, v)
		return
	}
	t.hbuckets[h][bucketOf(h, v)]++
	t.hsum[h] += v
	t.hcount[h]++
}

// Flush adds every non-zero count into r, one atomic add per slot, and
// zeroes the block. A nil r drops the counts: observation is off. It
// allocates nothing.
func (t *Tally) Flush(r *Registry) {
	if t == nil {
		return
	}
	for m, v := range t.counters {
		if v != 0 {
			if r != nil {
				r.counters[m].Add(v)
			}
			t.counters[m] = 0
		}
	}
	for h := range t.hcount {
		if t.hcount[h] == 0 {
			continue
		}
		if r != nil {
			for i, c := range t.hbuckets[h] {
				if c != 0 {
					r.hbuckets[h][i].Add(c)
				}
			}
			r.hsum[h].Add(t.hsum[h])
			r.hcount[h].Add(t.hcount[h])
		}
		t.hbuckets[h] = [histMaxBuckets]int64{}
		t.hsum[h], t.hcount[h] = 0, 0
	}
}
