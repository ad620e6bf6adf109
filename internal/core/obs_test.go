package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"bbc/internal/obs"
)

// withRegistry installs a fresh global registry for the test and restores
// the previous one afterwards.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.SetGlobal(reg)
	t.Cleanup(func() { obs.SetGlobal(prev) })
	return reg
}

// TestObsCountersUnderParallelEnumeration hammers the registry from the
// partitioned NE scan's workers and checks the counts reconcile with the
// serial result. Run with -race: this is the instrumentation data-race
// test for the enumeration path.
func TestObsCountersUnderParallelEnumeration(t *testing.T) {
	reg := withRegistry(t)
	spec := MustUniform(5, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EnumeratePureNEParallel(spec, SumDistances, ss, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Get(obs.MProfilesChecked); got != int64(res.Checked) {
		t.Errorf("profiles counter = %d, enumeration checked %d", got, res.Checked)
	}
	if got := reg.Get(obs.MEquilibriaFound); got != int64(len(res.Equilibria)) {
		t.Errorf("equilibria counter = %d, found %d", got, len(res.Equilibria))
	}
	if got := reg.Get(obs.MStabilityChecks); got != int64(res.Checked) {
		t.Errorf("stability counter = %d, want %d", got, res.Checked)
	}
	if reg.Get(obs.MWorkerTasks) == 0 || reg.Get(obs.MWorkerBusyNanos) == 0 {
		t.Error("worker utilization counters stayed zero during a parallel scan")
	}
	// Uniform-length oracle rebuilds take the bit-parallel path, so the
	// traversal count lands on the batch counters rather than graph.bfs.
	if reg.Get(obs.MBFS)+reg.Get(obs.MBFSBatch) == 0 || reg.Get(obs.MOracleBuild) == 0 {
		t.Error("oracle/BFS counters stayed zero during enumeration")
	}
	if reg.Get(obs.MBFSBatch) > 0 && reg.Get(obs.MBFSBatchSources) == 0 {
		t.Error("batched traversals reported no sources")
	}
}

// TestEnumerationUnaffectedByRegistry pins that instrumentation does not
// change results: the same scan with and without a registry returns the
// same equilibria.
func TestEnumerationUnaffectedByRegistry(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.SetGlobal(nil)
	t.Cleanup(func() { obs.SetGlobal(prev) })
	bare, err := EnumeratePureNE(spec, SumDistances, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetGlobal(obs.NewRegistry())
	instrumented, err := EnumeratePureNE(spec, SumDistances, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Checked != instrumented.Checked || len(bare.Equilibria) != len(instrumented.Equilibria) {
		t.Errorf("instrumentation changed results: %d/%d vs %d/%d",
			bare.Checked, len(bare.Equilibria), instrumented.Checked, len(instrumented.Equilibria))
	}
}

// countPins are the registry totals of a full uniform(6,1) scan (46,656
// profiles in six pivot partitions) through EnumeratePureNEParallelOpts,
// recorded when every count still went straight to the registry. Keys
// are counter names, and "hist:" + name for a histogram's observation
// count. Each partition re-binds its worker's scratch to a fresh graph,
// so the work, and every count below, is the same at any worker count.
var countPins = map[string]int64{
	"bfs.batch_sources":         164760,
	"bfs.batch_waves":           115873,
	"core.equilibria_found":     120,
	"core.profiles_checked":     46656,
	"core.stability_checks":     46656,
	"graph.bfs_batch":           32952,
	"oracle.builds":             32952,
	"oracle.cache_hits":         31212,
	"oracle.evals":              64164,
	"oracle.has_improvement":    64164,
	"parallel.tasks":            6,
	"hist:core.profile_eval_ns": 726,
	"hist:graph.bfs_wave_width": 32952,
}

// timingMetrics are the scan's other metrics, which vary from run to run:
// wall-time counters, and the build-latency histogram, which samples 1 in
// 64 builds of each worker's scratch.
var timingMetrics = []string{"oracle.build_nanos", "parallel.busy_nanos", "hist:oracle.build_duration_ns"}

// pinnedScan runs the scan countPins describes.
func pinnedScan(t *testing.T, workers int) *NEResult {
	t.Helper()
	spec := MustUniform(6, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// countsOf reads reg keyed as countPins is, without the timing metrics.
func countsOf(reg *obs.Registry) map[string]int64 {
	out := reg.Snapshot()
	for name, h := range reg.HistSnapshot() {
		out["hist:"+name] = h.Count
	}
	for _, k := range timingMetrics {
		delete(out, k)
	}
	return out
}

// checkCountPins fails the test unless reg holds exactly the pinned totals.
func checkCountPins(t *testing.T, reg *obs.Registry) {
	t.Helper()
	if got := countsOf(reg); !reflect.DeepEqual(got, countPins) {
		t.Errorf("registry after the scan:\n got %v\nwant %v", got, countPins)
	}
}

// TestScanCountsExactAcrossWorkers pins that per-worker counter blocks
// lose, duplicate and misattribute nothing: after the scan returns, the
// registry holds exactly the pinned totals at one, two and four workers.
func TestScanCountsExactAcrossWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			reg := withRegistry(t)
			res := pinnedScan(t, w)
			if res.Checked != 46656 || len(res.Equilibria) != 120 {
				t.Fatalf("scan checked %d profiles, found %d equilibria; want 46656 and 120", res.Checked, len(res.Equilibria))
			}
			checkCountPins(t, reg)
		})
	}
}

// TestScanCountsLiveReadMonotone reads the registry from another goroutine
// while two workers scan: flushes only ever add, so every value it sees
// is non-decreasing, and the last read after the scan is the pinned
// totals. Run with -race: this is the data-race test for flushing.
func TestScanCountsLiveReadMonotone(t *testing.T) {
	reg := withRegistry(t)
	done := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		prev := map[string]int64{}
		for {
			select {
			case <-done:
				polled <- nil
				return
			default:
			}
			cur := countsOf(reg)
			for k, v := range prev {
				if cur[k] < v {
					polled <- fmt.Errorf("%s went from %d to %d during the scan", k, v, cur[k])
					return
				}
			}
			prev = cur
			runtime.Gosched()
		}
	}()
	pinnedScan(t, 2)
	close(done)
	if err := <-polled; err != nil {
		t.Error(err)
	}
	checkCountPins(t, reg)
}

// TestCheckpointSeesExactCounts pins the flush before each checkpoint: a
// serial scan publishes its counts before it calls OnCheckpoint, so a
// reader in the callback (a journal record, a lease save) sees exactly the
// profiles the snapshot says were checked, not a total up to one flush
// period behind. Checkpoints every 1000 profiles first coincide with the
// 4096-profile periodic flush at 512,000, past the end of this scan.
func TestCheckpointSeesExactCounts(t *testing.T) {
	reg := withRegistry(t)
	spec := MustUniform(6, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	_, err = EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{
		CheckpointEvery: 1000,
		OnCheckpoint: func(cp *EnumCheckpoint) {
			ckpts++
			if got := reg.Get(obs.MProfilesChecked); got != int64(cp.Checked) {
				t.Errorf("checkpoint at %d profiles: registry reads %d", cp.Checked, got)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ckpts < 40 {
		t.Errorf("%d checkpoints fired, want at least 40", ckpts)
	}
}
