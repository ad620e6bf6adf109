package core

import (
	"testing"

	"bbc/internal/obs"
)

// Allocation regression tests: the incremental evaluation engine promises
// zero steady-state heap allocation. These tests pin that contract with
// testing.AllocsPerRun so a regression (an accidental closure, boxing, or
// fresh slice on the hot path) fails CI rather than silently eroding the
// recorded benchmark trajectory. Budgets:
//
//	Oracle.Evaluate        0 allocs/op  (fold into reused min-vector)
//	Oracle.HasImprovement  0 allocs/op  (shared undo stack, suffix bounds)
//	EvalScratch.OracleFor  0 allocs/op  on both cache hits and warm rebuilds
//	profileStable          0 allocs/op  on a warm scratch
//
// The obs registry is forced off: observation cost is measured separately
// and a process-global registry would make these budgets depend on test
// order.
func withObsOff(t *testing.T) {
	t.Helper()
	prev := obs.SetGlobal(nil)
	t.Cleanup(func() { obs.SetGlobal(prev) })
}

// allocFixture builds a warm scratch over a mid-sized uniform game.
func allocFixture(t *testing.T) (*EvalScratch, Profile, []int) {
	t.Helper()
	spec := MustUniform(8, 2)
	p := NewEmptyProfile(8)
	for u := 0; u < 8; u++ {
		p[u] = NormalizeStrategy([]int{(u + 1) % 8, (u + 3) % 8})
	}
	if err := p.Validate(spec); err != nil {
		t.Fatalf("fixture profile: %v", err)
	}
	g := p.Realize(spec)
	es := NewEvalScratch()
	es.Bind(spec, g, SumDistances)
	order := make([]int, 8)
	for i := range order {
		order[i] = i
	}
	// Warm every per-node slot so steady state is measured, not first use.
	for u := 0; u < 8; u++ {
		es.OracleFor(u)
	}
	return es, p, order
}

func TestEvaluateAllocFree(t *testing.T) {
	withObsOff(t)
	es, p, _ := allocFixture(t)
	o := es.OracleFor(3)
	if got := testing.AllocsPerRun(200, func() { o.Evaluate(p[3]) }); got != 0 {
		t.Errorf("Oracle.Evaluate allocates %v/op, want 0", got)
	}
}

func TestHasImprovementAllocFree(t *testing.T) {
	withObsOff(t)
	es, p, _ := allocFixture(t)
	o := es.OracleFor(3)
	cur := o.Evaluate(p[3])
	if got := testing.AllocsPerRun(200, func() { o.HasImprovement(cur) }); got != 0 {
		t.Errorf("Oracle.HasImprovement allocates %v/op, want 0", got)
	}
}

func TestOracleForAllocFree(t *testing.T) {
	withObsOff(t)
	es, _, _ := allocFixture(t)
	// Cache-hit path: nothing rewired between queries.
	if got := testing.AllocsPerRun(200, func() { es.OracleFor(5) }); got != 0 {
		t.Errorf("EvalScratch.OracleFor (cache hit) allocates %v/op, want 0", got)
	}
	// Rebuild path: invalidate node 5's oracle each run by rewiring
	// another node (the graph itself is unchanged — version bumps alone
	// force the rebuild).
	if got := testing.AllocsPerRun(200, func() {
		es.NoteRewire(2)
		es.OracleFor(5)
	}); got != 0 {
		t.Errorf("EvalScratch.OracleFor (warm rebuild) allocates %v/op, want 0", got)
	}
}

// TestOracleBatchBuildAllocFree pins the bit-parallel rebuild path
// explicitly (the uniform fixture takes it by default) and its scalar
// fallback: switching SetBatchBFS must not change the zero-alloc contract
// in either direction.
func TestOracleBatchBuildAllocFree(t *testing.T) {
	withObsOff(t)
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"batch", true}, {"scalar", false}} {
		t.Run(mode.name, func(t *testing.T) {
			es, _, _ := allocFixture(t)
			es.SetBatchBFS(mode.batch)
			es.NoteRewire(2)
			es.OracleFor(5) // warm the selected traversal path
			if got := testing.AllocsPerRun(200, func() {
				es.NoteRewire(2)
				es.OracleFor(5)
			}); got != 0 {
				t.Errorf("%s rebuild allocates %v/op, want 0", mode.name, got)
			}
		})
	}
}

func TestProfileStableAllocFree(t *testing.T) {
	withObsOff(t)
	es, p, order := allocFixture(t)
	profileStable(es, p, order, -1) // warm every oracle in check order
	if got := testing.AllocsPerRun(200, func() { profileStable(es, p, order, -1) }); got != 0 {
		t.Errorf("profileStable on a warm scratch allocates %v/op, want 0", got)
	}
}

// TestOracleForAllocFreeWithRegistry is TestOracleForAllocFree with a
// registry installed: the scratch counts into its own block, times 1 in
// 64 rebuilds, and publishes the block on FlushCounts, all without
// allocating.
func TestOracleForAllocFreeWithRegistry(t *testing.T) {
	withRegistry(t)
	es, _, _ := allocFixture(t)
	es.FlushCounts()
	if got := testing.AllocsPerRun(200, func() {
		es.OracleFor(5)
		es.FlushCounts()
	}); got != 0 {
		t.Errorf("EvalScratch.OracleFor (cache hit) + FlushCounts allocates %v/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		es.NoteRewire(2)
		es.OracleFor(5)
		es.FlushCounts()
	}); got != 0 {
		t.Errorf("EvalScratch.OracleFor (warm rebuild) + FlushCounts allocates %v/op, want 0", got)
	}
}

// TestProfileStableAllocFreeWithRegistry is TestProfileStableAllocFree
// with a registry installed, flush included.
func TestProfileStableAllocFreeWithRegistry(t *testing.T) {
	withRegistry(t)
	es, p, order := allocFixture(t)
	profileStable(es, p, order, -1)
	es.FlushCounts()
	if got := testing.AllocsPerRun(200, func() {
		profileStable(es, p, order, -1)
		es.FlushCounts()
	}); got != 0 {
		t.Errorf("profileStable + FlushCounts with a registry allocates %v/op, want 0", got)
	}
}
