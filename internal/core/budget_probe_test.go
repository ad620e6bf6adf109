package core

import (
	"encoding/json"
	"sync"
	"testing"

	"bbc/internal/runctl"
)

// A parallel scan given exactly enough MaxProfiles for the whole space
// must classify as a complete scan, not a budget truncation.
func TestParallelExactBudgetCompletes(t *testing.T) {
	spec := MustUniform(3, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := ss.Size()
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
		MaxProfiles: size,
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != size {
		t.Fatalf("checked %d of %d profiles", res.Checked, size)
	}
	if res.Status != runctl.StatusComplete || !res.Complete {
		t.Fatalf("exactly-sufficient budget must complete: status=%v complete=%v", res.Status, res.Complete)
	}
}

// Regression: the post-merge budget probe must be read-only. The old
// probe called take(), debiting one profile from the shared budget as a
// side effect of classifying the merge, so an exactly-sufficient budget
// drained to -1 instead of 0 — observable drift in the remaining count.
func TestParallelBudgetProbeDoesNotDebit(t *testing.T) {
	spec := MustUniform(3, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := ss.Size()
	b := newProfileBudget(size, 0)
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
		budget:  b,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != runctl.StatusComplete {
		t.Fatalf("exactly-sufficient budget must complete, got %v", res.Status)
	}
	if rem := b.remaining.Load(); rem != 0 {
		t.Fatalf("budget drifted: %d profiles were taken for %d checked (remaining %d, want 0)",
			size-uint64(rem), res.Checked, rem)
	}
	// Probing an exhausted budget any number of times must not move it.
	for i := 0; i < 3; i++ {
		if !b.exhausted() {
			t.Fatal("a drained budget must read as exhausted")
		}
	}
	if rem := b.remaining.Load(); rem != 0 {
		t.Fatalf("exhausted() mutated the budget: remaining %d", rem)
	}
}

// Bulk takes from concurrent scans never overdraw: the grants sum to
// exactly the budget, and an exhausted budget grants nothing.
func TestProfileBudgetBulkTakeNeverOverdraws(t *testing.T) {
	const budget = 100_003
	b := newProfileBudget(budget, 0)
	var (
		wg      sync.WaitGroup
		granted [8]uint64
	)
	for w := range granted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for want := uint64(w + 1); ; want = want*7%1000 + 1 {
				got := b.take(want)
				if got == 0 {
					return
				}
				if got > want {
					t.Errorf("take(%d) granted %d", want, got)
				}
				granted[w] += got
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, g := range granted {
		total += g
	}
	if total != budget || b.remaining.Load() != 0 || !b.exhausted() {
		t.Fatalf("granted %d of %d, remaining %d", total, budget, b.remaining.Load())
	}
}

// A truncated-then-resumed scan must report stable checkpoint Checked
// counts: re-running the merge (and its budget probe) against the same
// cumulative MaxProfiles may not move the persisted progress numbers.
func TestParallelBudgetCheckpointCheckedStable(t *testing.T) {
	spec := MustUniform(3, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Partition size for uniform(3,1) full space is 9; a budget of 14
	// completes partition 0 and truncates partition 1 mid-scan.
	const maxProfiles = 14
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
		MaxProfiles: maxProfiles,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != runctl.StatusBudget || res.Resume == nil {
		t.Fatalf("expected a budget truncation with resume state, got status=%v resume=%v", res.Status, res.Resume)
	}
	ckptChecked := res.Resume.Checked
	// Resuming under the same cumulative budget re-runs the merge and its
	// probe with no allowance left; the persisted Checked must not drift.
	cp := res.Resume
	for round := 0; round < 3; round++ {
		r, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
			MaxProfiles: ckptChecked, // all credit already spent
			Workers:     1,
			Resume:      cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != runctl.StatusBudget || r.Resume == nil {
			t.Fatalf("round %d: expected budget stop, got %v", round, r.Status)
		}
		if r.Resume.Checked != ckptChecked {
			t.Fatalf("round %d: checkpointed Checked drifted %d -> %d", round, ckptChecked, r.Resume.Checked)
		}
		cp = r.Resume
	}
}

// Resume after a partition hit the MaxEquilibria cap: a capped partition
// is not recorded in done[] (its scan did not complete), so the resumed
// run rescans it. The merged resumed result must be byte-identical to the
// uninterrupted capped scan's NEResult JSON.
func TestParallelResumeAfterCappedPartition(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EnumConfig{MaxEquilibria: 1, Workers: 2}
	ref, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != runctl.StatusBudget || ref.Resume == nil {
		t.Fatalf("test premise broken: the capped scan must truncate with resume state, got status=%v", ref.Status)
	}
	capped := 0
	for _, part := range ref.Resume.Parts {
		if part == nil {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("test premise broken: no partition was left incomplete by the cap")
	}

	resumedCfg := cfg
	resumedCfg.Resume = ref.Resume
	got, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(have) {
		t.Fatalf("resumed result diverged from the uninterrupted scan:\nwant %s\nhave %s", want, have)
	}
}
