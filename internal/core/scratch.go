package core

import (
	"time"

	"bbc/internal/graph"
	"bbc/internal/obs"
)

// EvalScratch is the reusable state behind incremental stability and
// best-response evaluation: one traversal scratch plus a per-node cache of
// oracles, all backed by buffers that are retained across queries. A warm
// EvalScratch answers Oracle queries with zero steady-state heap
// allocation.
//
// The cache exploits the oracle decomposition: the oracle for node u
// depends only on G−u (u's own out-arcs are deleted from every traversal),
// so rewiring node v invalidates the cached oracle of every node except v
// itself. Odometer-style enumeration, where one node's strategy changes
// per profile step, therefore reuses the changed node's own oracle
// verbatim; best-response walks reuse every oracle while probing nodes
// that end up not moving. Invalidation is tracked with version counters —
// Bind stamps version 1, NoteRewire(v) bumps the global version and
// stamps v, and a cached oracle built at time b is valid iff no node
// other than its owner was rewired after b.
//
// An EvalScratch is bound to one (spec, graph, aggregation) triple at a
// time via Bind and is NOT safe for concurrent use: parallel scans own
// one per worker goroutine. While bound, every mutation of the graph must
// be reported through NoteRewire (or by re-Binding), otherwise cached
// oracles go stale silently.
//
// Every count the scratch's oracles and traversals make lands in the
// scratch's own counter block, not in the shared registry: the owner
// calls FlushCounts to publish it (scans every runctl.CheckEvery
// profiles, before checkpoints and on return).
type EvalScratch struct {
	spec Spec
	g    *graph.Digraph
	agg  Aggregation

	gs   graph.Scratch
	dist []int64

	// Bit-parallel traversal state: on uniform-length specs oracle rebuilds
	// batch their node-deleted BFS calls through bs into the flat bdist
	// buffer (min(BatchWidth, n−1) × n entries), cutting a rebuild to a
	// handful of level-synchronized traversals. noBatch forces the scalar
	// path (SetBatchBFS), which produces bit-identical oracles.
	bs      graph.BitScratch
	bdist   []int64
	noBatch bool

	// rev is the arc-reversal of g, maintained incrementally by NoteRewire
	// on uniform-length bindings (nil otherwise): with it, a rebuild runs
	// one reverse traversal per *support* node instead of one forward
	// traversal per candidate — a large saving whenever few targets carry
	// positive preference weight. known[u] mirrors the out-targets of u
	// currently reflected in rev, so a rewire retracts exactly the arcs it
	// previously added.
	rev   *graph.Digraph
	known [][]int

	slots   []*evalSlot
	version uint64   // bumped by every NoteRewire
	rewired []uint64 // rewired[v] = version at v's last rewire (1 = at Bind)

	// tally is the counter block of this scratch's oracles and traversals;
	// builds counts oracle rebuilds, so 1 in buildSampleMask+1 is timed.
	tally  obs.Tally
	builds uint64
}

// buildSampleMask samples 1 in 64 oracle rebuilds for timing: the timed
// build's nanoseconds are scaled by 64 into oracle.build_nanos and
// observed as-is into the oracle.build_duration_ns histogram, sparing the
// other 63 builds their two clock reads.
const buildSampleMask = 63

// evalSlot caches one node's oracle. builtAt is the version at which the
// oracle was built; 0 means never built for the current binding.
type evalSlot struct {
	o       Oracle
	builtAt uint64
}

// NewEvalScratch returns an empty scratch; Bind attaches it to a game.
// Batched bit-parallel traversals are on by default where they apply
// (uniform-length specs); SetBatchBFS(false) opts out.
func NewEvalScratch() *EvalScratch { return &EvalScratch{} }

// SetBatchBFS enables or disables the bit-parallel traversal path for
// oracle rebuilds. Both settings produce bit-identical oracles; disabling
// exists for benchmarks isolating the scalar engine and for diagnosing the
// batch path itself.
func (es *EvalScratch) SetBatchBFS(on bool) { es.noBatch = !on }

// Bind attaches the scratch to a (spec, graph, aggregation) triple,
// invalidating every cached oracle unless the triple is identical to the
// current binding (in which case Bind is a no-op and the cache survives).
// Buffers are retained across re-binds, so alternating between games of
// the same size stays allocation-free after warm-up.
func (es *EvalScratch) Bind(spec Spec, g *graph.Digraph, agg Aggregation) {
	if es.spec == spec && es.g == g && es.agg == agg && es.version != 0 {
		return
	}
	es.spec, es.g, es.agg = spec, g, agg
	es.gs.Tally, es.bs.Tally = &es.tally, &es.tally
	n := spec.N()
	if cap(es.dist) < n {
		es.dist = make([]int64, n)
	}
	es.dist = es.dist[:n]
	if spec.UnitLengths() {
		es.bdist = grow(es.bdist, min(graph.BatchWidth, n-1)*n)
		if es.rev == nil || es.rev.N() != n {
			es.rev = graph.New(n)
			es.known = make([][]int, n)
		}
		for v := 0; v < n; v++ {
			es.rev.RemoveArcs(v)
		}
		for u := 0; u < n; u++ {
			es.known[u] = es.known[u][:0]
			for _, a := range g.Out(u) {
				es.rev.AddArc(a.To, u, a.Len)
				es.known[u] = append(es.known[u], a.To)
			}
		}
	} else {
		es.rev = nil
	}
	if cap(es.slots) < n {
		slots := make([]*evalSlot, n)
		copy(slots, es.slots)
		es.slots = slots
	}
	es.slots = es.slots[:n]
	if cap(es.rewired) < n {
		es.rewired = make([]uint64, n)
	}
	es.rewired = es.rewired[:n]
	es.version = 1
	for v := range es.rewired {
		es.rewired[v] = 1
	}
	for _, s := range es.slots {
		if s != nil {
			s.builtAt = 0
		}
	}
}

// NoteRewire records that node u's out-arcs changed in the bound graph,
// invalidating every cached oracle except u's own and reconciling the
// reversed twin with the bound graph's new arcs.
func (es *EvalScratch) NoteRewire(u int) {
	es.version++
	es.rewired[u] = es.version
	if es.rev == nil {
		return
	}
	for _, v := range es.known[u] {
		es.rev.RemoveArcTo(v, u)
	}
	es.known[u] = es.known[u][:0]
	for _, a := range es.g.Out(u) {
		es.rev.AddArc(a.To, u, a.Len)
		es.known[u] = append(es.known[u], a.To)
	}
}

// OracleFor returns node u's oracle against the bound graph, serving it
// from cache when no other node has been rewired since it was built, and
// rebuilding it in place (reusing the slot's buffers and the shared
// traversal scratch) otherwise. The returned oracle is owned by the
// scratch and valid until the next OracleFor, NoteRewire or Bind call
// touching it.
func (es *EvalScratch) OracleFor(u int) *Oracle {
	slot := es.slots[u]
	if slot == nil {
		slot = &evalSlot{o: Oracle{tally: &es.tally}}
		es.slots[u] = slot
	}
	if slot.builtAt != 0 {
		valid := true
		for v, rv := range es.rewired {
			if v != u && rv > slot.builtAt {
				valid = false
				break
			}
		}
		if valid {
			es.tally.Inc(obs.MOracleCacheHits)
			return &slot.o
		}
	}
	bs, rev := &es.bs, es.rev
	if es.noBatch {
		bs, rev = nil, nil
	}
	timed := es.builds&buildSampleMask == 0 && obs.Global() != nil
	es.builds++
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	slot.o.build(es.spec, es.g, u, es.agg, &es.gs, bs, es.dist, es.bdist, rev)
	if timed {
		ns := time.Since(t0).Nanoseconds()
		es.tally.Add(obs.MOracleBuildNanos, ns*(buildSampleMask+1))
		es.tally.Observe(obs.HOracleBuild, ns)
	}
	slot.builtAt = es.version
	return &slot.o
}

// Tally returns the scratch's counter block, for callers that count their
// own loop (walk steps, rounds) next to the oracle work it drives.
func (es *EvalScratch) Tally() *obs.Tally { return &es.tally }

// FlushCounts publishes the scratch's counter block into the installed
// registry and zeroes it. Until a flush, the counts of OracleFor and of
// the oracles it returns are invisible to registry readers.
func (es *EvalScratch) FlushCounts() { es.tally.Flush(obs.Global()) }
