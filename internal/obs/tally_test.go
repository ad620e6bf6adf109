package obs

import (
	"reflect"
	"testing"
)

// TestTallyFlushMatchesRegistry pins that counting into a Tally and
// flushing it leaves a registry exactly as counting into it directly
// would, counters and histograms alike, and that a flush empties the
// block so a second one adds nothing.
func TestTallyFlushMatchesRegistry(t *testing.T) {
	direct, flushed := NewRegistry(), NewRegistry()
	var tl Tally
	for i := int64(0); i < 300; i++ {
		direct.Inc(MBFS)
		tl.Inc(MBFS)
		direct.Add(MBFSBatchWaves, i%7)
		tl.Add(MBFSBatchWaves, i%7)
		direct.Observe(HBFSWave, i%40)
		tl.Observe(HBFSWave, i%40)
		direct.Observe(HOracleBuild, i*1000)
		tl.Observe(HOracleBuild, i*1000)
	}
	tl.Flush(flushed)
	tl.Flush(flushed)
	if got, want := flushed.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("flushed counters %v, direct %v", got, want)
	}
	if got, want := flushed.HistSnapshot(), direct.HistSnapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("flushed histograms %v, direct %v", got, want)
	}
}

// TestNilTallyCountsIntoGlobal pins the fallback: a nil *Tally counts
// straight into the installed registry, and a flush into a nil registry
// drops the block's counts.
func TestNilTallyCountsIntoGlobal(t *testing.T) {
	reg := NewRegistry()
	prev := SetGlobal(reg)
	t.Cleanup(func() { SetGlobal(prev) })
	var nilTally *Tally
	nilTally.Inc(MOracleEval)
	nilTally.Add(MOracleEval, 2)
	nilTally.Observe(HBFSWave, 3)
	nilTally.Flush(reg) // no block: nothing to do
	if got := reg.Get(MOracleEval); got != 3 {
		t.Errorf("oracle.evals = %d, want 3", got)
	}
	if got := reg.HistogramFor(HBFSWave).Count; got != 1 {
		t.Errorf("bfs_wave_width count = %d, want 1", got)
	}

	var tl Tally
	tl.Inc(MOracleEval)
	tl.Observe(HBFSWave, 3)
	tl.Flush(nil)
	tl.Flush(reg)
	if got := reg.Get(MOracleEval); got != 3 {
		t.Errorf("after a flush into nil then reg, oracle.evals = %d, want 3", got)
	}
	if got := reg.HistogramFor(HBFSWave).Count; got != 1 {
		t.Errorf("after a flush into nil then reg, bfs_wave_width count = %d, want 1", got)
	}
}
