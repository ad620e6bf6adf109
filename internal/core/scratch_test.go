package core

import (
	"testing"

	"bbc/internal/obs"
)

// TestOracleForCacheSemantics pins the invalidation rule: node u's oracle
// depends only on G−u, so rewiring u itself must NOT invalidate u's cached
// oracle, while rewiring any other node must. Cache hits are observed
// through the oracle.cache_hits counter, and a served oracle must agree
// with a freshly built one.
func TestOracleForCacheSemantics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetGlobal(reg)
	t.Cleanup(func() { obs.SetGlobal(prev) })

	spec := MustUniform(6, 2)
	p := NewEmptyProfile(6)
	for u := 0; u < 6; u++ {
		p[u] = NormalizeStrategy([]int{(u + 1) % 6, (u + 2) % 6})
	}
	g := p.Realize(spec)
	es := NewEvalScratch()
	es.Bind(spec, g, SumDistances)

	// The scratch counts into its own block; publish it before each read.
	hits := func() int64 { es.FlushCounts(); return reg.Get(obs.MOracleCacheHits) }
	builds := func() int64 { es.FlushCounts(); return reg.Get(obs.MOracleBuild) }

	es.OracleFor(0) // cold build
	b0, h0 := builds(), hits()
	es.OracleFor(0) // nothing changed → hit
	if builds() != b0 || hits() != h0+1 {
		t.Fatalf("unchanged graph: want cache hit, got builds %d→%d hits %d→%d", b0, builds(), h0, hits())
	}

	// The odometer case: node 0's own digit changes. Its oracle ignores
	// its own out-arcs, so it must still be served from cache.
	newS := NormalizeStrategy([]int{2, 3})
	setStrategyArcs(spec, g, 0, newS)
	es.NoteRewire(0)
	b1, h1 := builds(), hits()
	o := es.OracleFor(0)
	if builds() != b1 || hits() != h1+1 {
		t.Fatalf("self-rewire: want cache hit, got builds %d→%d hits %d→%d", b1, builds(), h1, hits())
	}
	p[0] = newS
	if got, want := o.Evaluate(p[0]), NewOracle(spec, g, 0, SumDistances).Evaluate(p[0]); got != want {
		t.Fatalf("cached oracle after self-rewire: cost %d, fresh oracle says %d", got, want)
	}

	// Rewiring another node must invalidate node 0's oracle.
	setStrategyArcs(spec, g, 3, NormalizeStrategy([]int{0, 1}))
	es.NoteRewire(3)
	b2, h2 := builds(), hits()
	o = es.OracleFor(0)
	if builds() != b2+1 || hits() != h2 {
		t.Fatalf("cross-rewire: want rebuild, got builds %d→%d hits %d→%d", b2, builds(), h2, hits())
	}
	if got, want := o.Evaluate(p[0]), NewOracle(spec, g, 0, SumDistances).Evaluate(p[0]); got != want {
		t.Fatalf("rebuilt oracle: cost %d, fresh oracle says %d", got, want)
	}
	// ...but node 3's own oracle, built after its rewire, is then cacheable.
	es.OracleFor(3)
	b3, h3 := builds(), hits()
	es.OracleFor(3)
	if builds() != b3 || hits() != h3+1 {
		t.Fatalf("post-rewire node 3: want cache hit, got builds %d→%d hits %d→%d", b3, builds(), h3, hits())
	}
}

// TestEvalScratchRebindInvalidates pins Bind's contract: re-binding to a
// different graph pointer clears the cache, re-binding to the identical
// triple keeps it.
func TestEvalScratchRebindInvalidates(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetGlobal(reg)
	t.Cleanup(func() { obs.SetGlobal(prev) })

	spec := MustUniform(5, 1)
	p := NewEmptyProfile(5)
	for u := 0; u < 5; u++ {
		p[u] = Strategy{(u + 1) % 5}
	}
	es := NewEvalScratch()
	// The scratch counts into its own block; publish it before each read.
	builds := func() int64 { es.FlushCounts(); return reg.Get(obs.MOracleBuild) }
	g1 := p.Realize(spec)
	es.Bind(spec, g1, SumDistances)
	es.OracleFor(2)

	es.Bind(spec, g1, SumDistances) // identical triple: cache survives
	b0 := builds()
	es.OracleFor(2)
	if builds() != b0 {
		t.Fatal("re-bind to identical triple dropped the cache")
	}

	g2 := p.Realize(spec) // fresh pointer, same shape: cache must reset
	es.Bind(spec, g2, SumDistances)
	es.OracleFor(2)
	if builds() != b0+1 {
		t.Fatal("re-bind to a new graph did not invalidate the cache")
	}
}
