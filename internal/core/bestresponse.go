package core

import (
	"fmt"
	"sort"

	"bbc/internal/graph"
	"bbc/internal/obs"
)

// infDist is the internal sentinel for "no path"; it is mapped to the
// spec's penalty M at aggregation time so that the min over candidate rows
// stays well-defined.
const infDist = int64(1) << 60

// Oracle answers best-response queries for one node against a fixed rest-
// of-profile. It exploits the structural fact that a shortest path from u
// never revisits u, so u's distance to v under strategy S decomposes as
//
//	d(u, v) = min_{t ∈ S} ( ℓ(u,t) + d_{G−u}(t, v) )
//
// where d_{G−u} is the distance in the realized graph with u deleted. The
// oracle precomputes one row per candidate target t: row_t[v] = ℓ(u,t) +
// d_{G−u}(t, v). Best response is then a budget-constrained weighted
// k-median over the rows; the oracle offers exact enumeration, a pruned
// existence-only stability query, greedy, and swap local search.
//
// The oracle is independent of u's own current strategy (u is deleted from
// every traversal), so one oracle serves both "is u stable?" and "what is
// u's best response?".
//
// Internally the rows are support-compressed and arena-backed: only the
// columns with positive preference weight w(u,v) are materialized (zero-
// weight targets never contribute to the cost), and all rows live in one
// flat slice instead of n−1 heap slices. An Oracle carries its own fold
// scratch, so Evaluate, LowerBound and HasImprovement allocate nothing.
// The scratch makes an Oracle unsafe for concurrent use; parallel callers
// build one oracle per goroutine.
type Oracle struct {
	spec    Spec
	u       int
	agg     Aggregation
	n       int
	penalty int64
	budget  int64
	cands   []int   // candidate targets, ascending, excludes u
	costs   []int64 // costs[i] = c(u, cands[i])
	support []int   // targets v≠u with w(u,v) > 0, ascending
	weights []int64 // weights[j] = w(u, support[j])
	// arena is the flat row storage: row i occupies
	// arena[i*len(support) : (i+1)*len(support)], with
	// row_i[j] = ℓ(u,cands[i]) + d_{G−u}(cands[i], support[j]); infDist if
	// unreachable.
	arena []int64
	// suffix[i*S:(i+1)*S] is the column-wise minimum over rows i..end
	// (S = len(support)); suffix row len(cands) is all infDist. Row 0 is
	// the everything-at-once lower-bound vector; deeper rows are the
	// branch-and-bound optimistic completions of HasImprovement. Built
	// lazily on the first LowerBound/HasImprovement call, so pure
	// best-response queries never pay for it.
	suffix      []int64
	suffixValid bool
	// minRemain[i] = the cheapest link cost among candidates i..end; used
	// to decide maximality at leaves and to shortcut exhausted budgets.
	minRemain []int64
	offs      []int64 // offs[i] = ℓ(u, cands[i]), the row offset of candidate i
	// pairCost is the sum of the two cheapest candidate link costs (2^64−1
	// when fewer than two candidates exist). pairCost > budget means no
	// feasible strategy holds two links, so the best-response optimum is
	// the cheapest affordable single row — cached in singleOpt per rebuild,
	// collapsing HasImprovement to one comparison on budget-1 games.
	pairCost       uint64
	singleOpt      int64
	singleOptValid bool
	// specCached marks cands/costs/support/weights/offs/minRemain/pairCost
	// as valid for the current (spec, u): those arrays are derived from the
	// spec alone, so a rebuild for the same node of the same game skips
	// straight to the traversals and the arena fill.
	specCached bool
	minVec     []int64 // fold scratch for Evaluate
	curVec     []int64 // DFS overlay state for BestExact / HasImprovement
	cells      []undoCell
	chosen     []int
	taken      []bool // BestGreedy marks
	// tally is the counter block of the owning EvalScratch; nil (an oracle
	// from NewOracle) counts straight into the installed registry.
	tally *obs.Tally
}

// undoCell records an overwritten curVec entry so DFS include branches can
// backtrack without copying the whole vector.
type undoCell struct {
	j   int32
	old int64
}

// NewOracle precomputes the candidate distance rows for node u against the
// given realized graph (whose arcs out of u are ignored). It always takes
// the scalar per-source traversal path; the bit-parallel batch path belongs
// to EvalScratch, which owns the buffers that make it worthwhile (and the
// reference paths in differential tests rely on NewOracle staying scalar).
func NewOracle(spec Spec, g *graph.Digraph, u int, agg Aggregation) *Oracle {
	o := &Oracle{}
	var gs graph.Scratch
	reg := obs.Global()
	t0 := reg.Started()
	o.build(spec, g, u, agg, &gs, nil, make([]int64, spec.N()), nil, nil)
	reg.ElapsedSince(obs.MOracleBuildNanos, t0)
	reg.ObserveSince(obs.HOracleBuild, t0)
	return o
}

// build (re)initializes the oracle in place, reusing every buffer whose
// capacity suffices. gs and dist are the traversal scratch and an n-length
// distance buffer; EvalScratch shares one pair across all of its oracles.
// bs and bdist, when both non-nil, enable the bit-parallel traversal path
// on uniform-length specs: sources are chunked into batches of up to
// graph.BatchWidth and each batch costs one level-synchronized
// BFSBatchInto instead of one BFSInto per source. bdist must hold
// min(BatchWidth, n−1) × n entries.
//
// rev, when non-nil alongside bs on a uniform-length spec, must be the
// exact arc-reversal of g (EvalScratch maintains one incrementally): the
// rebuild then traverses column-wise — one reverse BFS per *support* node
// v yields d_{G−u}(t, v) for every candidate t at once, because a t→v
// path in G−u is a v→t path in rev−u. Support sets are typically far
// smaller than candidate sets (only positive-weight targets are
// materialized), so the reverse path runs |support| traversals instead of
// n−1. Non-unit specs, nil bs and nil rev fall back to the scalar forward
// path, which is bit-for-bit equivalent (every path fills the same arena
// cells from the same hop counts).
func (o *Oracle) build(spec Spec, g *graph.Digraph, u int, agg Aggregation, gs *graph.Scratch, bs *graph.BitScratch, dist []int64, bdist []int64, rev *graph.Digraph) {
	n := spec.N()
	if g.N() != n {
		panic(fmt.Sprintf("core: graph has %d nodes, spec has %d", g.N(), n))
	}
	if u < 0 || u >= n {
		panic(fmt.Sprintf("core: node %d out of range", u))
	}
	o.tally.Inc(obs.MOracleBuild)
	sp := obs.Trace().StartSpan("oracle.build")
	if !(o.specCached && o.spec == spec && o.u == u) {
		o.spec, o.u = spec, u
		o.support = o.support[:0]
		o.weights = o.weights[:0]
		o.cands = o.cands[:0]
		o.costs = o.costs[:0]
		o.offs = o.offs[:0]
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if w := spec.Weight(u, v); w > 0 {
				o.support = append(o.support, v)
				o.weights = append(o.weights, w)
			}
			o.cands = append(o.cands, v)
			o.costs = append(o.costs, spec.LinkCost(u, v))
			o.offs = append(o.offs, spec.Length(u, v))
		}
		C := len(o.cands)
		o.minRemain = grow(o.minRemain, C+1)
		o.minRemain[C] = int64(1)<<62 - 1
		for i := C - 1; i >= 0; i-- {
			o.minRemain[i] = o.costs[i]
			if o.minRemain[i+1] < o.minRemain[i] {
				o.minRemain[i] = o.minRemain[i+1]
			}
		}
		c1, c2 := uint64(1)<<63, uint64(1)<<63
		for _, c := range o.costs {
			if uc := uint64(c); uc < c1 {
				c1, c2 = uc, c1
			} else if uc < c2 {
				c2 = uc
			}
		}
		if c2 == uint64(1)<<63 { // fewer than two candidates: no pair exists
			o.pairCost = ^uint64(0)
		} else {
			o.pairCost = c1 + c2 // exact: two int64 costs cannot wrap a uint64
		}
		o.specCached = true
	}
	o.agg, o.n = agg, n
	o.penalty = spec.Penalty()
	o.budget = spec.Budget(u)
	C, S := len(o.cands), len(o.support)

	o.arena = grow(o.arena, C*S)
	if len(dist) != n {
		dist = make([]int64, n)
	}
	unit := spec.UnitLengths()
	opt := graph.Options{Skip: u}
	switch {
	case unit && rev != nil && bs != nil && len(bdist) >= min(graph.BatchWidth, max(S, 1))*n:
		for lo := 0; lo < S; lo += graph.BatchWidth {
			hi := min(lo+graph.BatchWidth, S)
			m := hi - lo
			rev.BFSBatchInto(bdist[:m*n], o.support[lo:hi], opt, bs)
			for i, t := range o.cands {
				row := o.arena[i*S+lo : i*S+hi]
				off := o.offs[i]
				for j := 0; j < m; j++ {
					if d := bdist[j*n+t]; d == graph.Unreachable {
						row[j] = infDist
					} else {
						row[j] = off + d
					}
				}
			}
		}
	case unit && bs != nil && len(bdist) >= min(graph.BatchWidth, C)*n && C > 1:
		for lo := 0; lo < C; lo += graph.BatchWidth {
			hi := min(lo+graph.BatchWidth, C)
			m := hi - lo
			g.BFSBatchInto(bdist[:m*n], o.cands[lo:hi], opt, bs)
			for ci := 0; ci < m; ci++ {
				offset := o.offs[lo+ci]
				d := bdist[ci*n : (ci+1)*n]
				row := o.arena[(lo+ci)*S : (lo+ci+1)*S]
				for j, v := range o.support {
					if dv := d[v]; dv == graph.Unreachable {
						row[j] = infDist
					} else {
						row[j] = offset + dv
					}
				}
			}
		}
	default:
		for i, t := range o.cands {
			if unit {
				g.BFSInto(dist, t, opt, gs)
			} else {
				g.DijkstraInto(dist, t, opt, gs)
			}
			offset := o.offs[i]
			row := o.arena[i*S : (i+1)*S]
			for j, v := range o.support {
				if d := dist[v]; d == graph.Unreachable {
					row[j] = infDist
				} else {
					row[j] = offset + d
				}
			}
		}
	}

	o.suffixValid = false
	o.singleOptValid = false

	o.minVec = grow(o.minVec, S)
	o.curVec = grow(o.curVec, S)
	o.cells = o.cells[:0]
	o.chosen = o.chosen[:0]
	sp.EndInt("node", int64(u))
}

// grow reslices buf to length want, reallocating only when the capacity
// is short; reused contents are not cleared.
func grow[T any](buf []T, want int) []T {
	if cap(buf) < want {
		return make([]T, want)
	}
	return buf[:want]
}

// Node returns the node this oracle answers for.
func (o *Oracle) Node() int { return o.u }

// row returns candidate i's support-compressed distance row.
func (o *Oracle) row(i int) []int64 {
	S := len(o.support)
	return o.arena[i*S : (i+1)*S]
}

// suffixRow returns the column-wise minimum over rows i..end. Callers
// must have run ensureSuffix since the last build.
func (o *Oracle) suffixRow(i int) []int64 {
	S := len(o.support)
	return o.suffix[i*S : (i+1)*S]
}

// ensureSuffix materializes the suffix column-minima matrix, reusing its
// buffer across rebuilds (0 allocs once the buffer has grown).
func (o *Oracle) ensureSuffix() {
	if o.suffixValid {
		return
	}
	C, S := len(o.cands), len(o.support)
	o.suffix = grow(o.suffix, (C+1)*S)
	last := o.suffix[C*S:]
	for j := range last {
		last[j] = infDist
	}
	for i := C - 1; i >= 0; i-- {
		row := o.arena[i*S : (i+1)*S]
		next := o.suffix[(i+1)*S : (i+2)*S]
		cur := o.suffix[i*S : (i+1)*S]
		for j := 0; j < S; j++ {
			m := next[j]
			if row[j] < m {
				m = row[j]
			}
			cur[j] = m
		}
	}
	o.suffixValid = true
}

// Evaluate returns u's cost when playing the given (feasible, normalized)
// strategy against the fixed rest-of-profile. It allocates nothing.
func (o *Oracle) Evaluate(s Strategy) int64 {
	o.tally.Inc(obs.MOracleEval)
	S := len(o.support)
	min := o.minVec
	for j := range min {
		min[j] = infDist
	}
	for _, t := range s {
		row := o.row(o.rowIndex(t))
		for j := 0; j < S; j++ {
			if row[j] < min[j] {
				min[j] = row[j]
			}
		}
	}
	return o.foldCost(min)
}

// foldCost aggregates a support-indexed min-distance vector into u's cost.
func (o *Oracle) foldCost(vec []int64) int64 {
	m := o.penalty
	var total int64
	switch o.agg {
	case SumDistances:
		for j, d := range vec {
			if d >= infDist {
				d = m
			}
			total += o.weights[j] * d
		}
	case MaxDistance:
		for j, d := range vec {
			if d >= infDist {
				d = m
			}
			if t := o.weights[j] * d; t > total {
				total = t
			}
		}
	default:
		panic("core: unknown aggregation")
	}
	return total
}

// foldCostMin2 folds the element-wise minimum of two support-indexed
// vectors without materializing it.
func (o *Oracle) foldCostMin2(a, b []int64) int64 {
	m := o.penalty
	var total int64
	switch o.agg {
	case SumDistances:
		for j, d := range a {
			if b[j] < d {
				d = b[j]
			}
			if d >= infDist {
				d = m
			}
			total += o.weights[j] * d
		}
	case MaxDistance:
		for j, d := range a {
			if b[j] < d {
				d = b[j]
			}
			if d >= infDist {
				d = m
			}
			if t := o.weights[j] * d; t > total {
				total = t
			}
		}
	default:
		panic("core: unknown aggregation")
	}
	return total
}

// LowerBound returns a certified lower bound on u's achievable cost
// against the fixed rest-of-profile: the cost u would have if it could buy
// every link at once (the column-wise minimum over all candidate rows,
// precomputed as suffix row 0). Any strategy's distance to v is the
// minimum over its chosen rows, hence at least this bound; a node whose
// current cost equals the bound is provably playing a best response, which
// lets stability checks skip the exponential enumeration for large-budget
// nodes.
func (o *Oracle) LowerBound() int64 {
	o.ensureSuffix()
	return o.foldCost(o.suffixRow(0))
}

// HasImprovement reports whether some budget-feasible strategy achieves a
// cost strictly below cur (u's incumbent cost). It is output-equivalent to
// comparing cur against BestExact's optimum — cost is monotone
// non-increasing under adding links, so an improving feasible set exists
// exactly when an improving maximal set does — but instead of enumerating
// every maximal strategy it branch-and-bounds the subset search against
// cur: a subtree is pruned when even buying all of its remaining
// candidates (budget ignored, a valid optimistic bound) cannot beat cur,
// and the search exits at the first strictly improving set, checked at
// every include step rather than only at leaves. It allocates nothing on a
// warm oracle.
func (o *Oracle) HasImprovement(cur int64) bool {
	o.tally.Inc(obs.MHasImprovement)
	if o.pairCost > uint64(o.budget) {
		// No feasible strategy holds two links (the two cheapest together
		// exceed the budget, or fewer than two candidates exist), so the
		// exact optimum is the cheapest affordable single row — cached per
		// rebuild, making repeated stability queries one comparison each.
		return o.singleBest() < cur
	}
	o.ensureSuffix()
	v := o.curVec
	for j := range v {
		v[j] = infDist
	}
	o.cells = o.cells[:0]
	return o.hasImp(0, o.budget, cur)
}

// singleBest returns the exact best-response cost when every feasible
// strategy is empty or a single link (pairCost > budget): cost is monotone
// non-increasing under adding links, so the optimum is the minimum over
// the affordable single-link rows, or the empty-strategy cost when no link
// is affordable. The value survives until the next rebuild.
func (o *Oracle) singleBest() int64 {
	if o.singleOptValid {
		return o.singleOpt
	}
	v := o.minVec
	for j := range v {
		v[j] = infDist
	}
	opt := o.foldCost(v) // the empty strategy: every target at the penalty
	for i := range o.cands {
		if o.costs[i] > o.budget {
			continue
		}
		if c := o.foldCost(o.row(i)); c < opt {
			opt = c
		}
	}
	o.singleOpt, o.singleOptValid = opt, true
	return opt
}

// hasImp is the branch-and-bound DFS behind HasImprovement. curVec holds
// the column minima of the currently included rows; cells is the shared
// backtracking stack.
func (o *Oracle) hasImp(i int, rem, cur int64) bool {
	// Optimistic completion: even overlaying every remaining row cannot
	// beat cur → no leaf below improves.
	if o.foldCostMin2(o.curVec, o.suffixRow(i)) >= cur {
		return false
	}
	if i == len(o.cands) {
		// The bound at a leaf is the leaf's exact cost, and it beat cur.
		return true
	}
	if o.minRemain[i] > rem {
		// Nothing further fits the budget: the current set is the only
		// reachable leaf.
		return o.foldCost(o.curVec) < cur
	}
	if o.costs[i] <= rem {
		mark := len(o.cells)
		row := o.row(i)
		for j := 0; j < len(row); j++ {
			if row[j] < o.curVec[j] {
				o.cells = append(o.cells, undoCell{j: int32(j), old: o.curVec[j]})
				o.curVec[j] = row[j]
			}
		}
		// A partial set is itself feasible; exit at the first improvement.
		if o.foldCost(o.curVec) < cur {
			return true
		}
		if o.hasImp(i+1, rem-o.costs[i], cur) {
			return true
		}
		for _, c := range o.cells[mark:] {
			o.curVec[c.j] = c.old
		}
		o.cells = o.cells[:mark]
	}
	return o.hasImp(i+1, rem, cur)
}

// rowIndex maps a target node id to its candidate row index.
func (o *Oracle) rowIndex(t int) int {
	i := sort.SearchInts(o.cands, t)
	if i >= len(o.cands) || o.cands[i] != t {
		panic(fmt.Sprintf("core: node %d is not a candidate target for %d", t, o.u))
	}
	return i
}

// EnumerationLimitError is returned by BestExact when the number of
// feasible maximal strategies exceeds the caller's limit.
type EnumerationLimitError struct {
	Node  int
	Limit int
}

func (e *EnumerationLimitError) Error() string {
	return fmt.Sprintf("core: best-response enumeration for node %d exceeded limit %d", e.Node, e.Limit)
}

// BestExact enumerates every maximal budget-feasible strategy and returns a
// minimum-cost one (ties broken toward the lexicographically smallest
// strategy, so the result is deterministic). Because weights are
// non-negative, cost is monotone non-increasing under adding links, so
// restricting to maximal sets is lossless.
//
// limit caps the number of strategies examined; 0 means no cap. When the
// cap is hit, an *EnumerationLimitError is returned.
func (o *Oracle) BestExact(limit int) (Strategy, int64, error) {
	o.tally.Inc(obs.MBestExact)
	budget := o.budget

	cur := o.curVec
	for j := range cur {
		cur[j] = infDist
	}
	o.cells = o.cells[:0]
	o.chosen = o.chosen[:0]
	var (
		best     Strategy
		bestCost = int64(1)<<62 - 1
		examined int
		limitHit bool
	)

	record := func() {
		examined++
		cost := o.foldCost(cur)
		if cost < bestCost {
			bestCost = cost
			best = make(Strategy, len(o.chosen))
			for i, ci := range o.chosen {
				best[i] = o.cands[ci]
			}
			sort.Ints(best)
		}
	}

	var dfs func(i int, rem int64)
	dfs = func(i int, rem int64) {
		if limitHit {
			return
		}
		if limit > 0 && examined >= limit {
			limitHit = true
			return
		}
		if i == len(o.cands) {
			record()
			return
		}
		// Prune: if nothing from here on fits, this branch is one leaf.
		if o.minRemain[i] > rem {
			record()
			return
		}
		// Include candidate i when affordable.
		if o.costs[i] <= rem {
			mark := len(o.cells)
			row := o.row(i)
			for j := 0; j < len(row); j++ {
				if row[j] < cur[j] {
					o.cells = append(o.cells, undoCell{j: int32(j), old: cur[j]})
					cur[j] = row[j]
				}
			}
			o.chosen = append(o.chosen, i)
			dfs(i+1, rem-o.costs[i])
			o.chosen = o.chosen[:len(o.chosen)-1]
			for _, c := range o.cells[mark:] {
				cur[c.j] = c.old
			}
			o.cells = o.cells[:mark]
		}
		// Exclude candidate i — but only if a maximal set can still be
		// completed, i.e. some later candidate is affordable, OR excluding i
		// is forced because i itself is unaffordable.
		if o.costs[i] > rem {
			dfs(i+1, rem)
			return
		}
		if o.minRemain[i+1] <= rem {
			dfs(i+1, rem)
			return
		}
		// Excluding i would end at a non-maximal leaf (i still fits and
		// nothing after it does): skip, since some maximal superset
		// dominates it.
	}
	dfs(0, budget)
	o.tally.Add(obs.MBestExactLeaves, int64(examined))
	if limitHit {
		return nil, 0, &EnumerationLimitError{Node: o.u, Limit: limit}
	}
	if best == nil {
		// No candidate affordable at all: the empty strategy is the only
		// option.
		return Strategy{}, o.Evaluate(Strategy{}), nil
	}
	return best, bestCost, nil
}

// BestGreedy builds a strategy by repeatedly adding the affordable link
// with the largest marginal cost decrease (k-median greedy). Ties break
// toward the lowest candidate index. It returns the strategy and its cost.
// Greedy continues adding links while budget remains even when the marginal
// gain is zero, since extra links never hurt and maximality matches the
// exact oracle's search space.
func (o *Oracle) BestGreedy() (Strategy, int64) {
	o.tally.Inc(obs.MBestGreedy)
	budget := o.budget
	cur := o.curVec
	for j := range cur {
		cur[j] = infDist
	}
	if cap(o.taken) < len(o.cands) {
		o.taken = make([]bool, len(o.cands))
	}
	taken := o.taken[:len(o.cands)]
	for i := range taken {
		taken[i] = false
	}
	var out Strategy
	for {
		bestIdx := -1
		bestCost := int64(1)<<62 - 1
		for i := range o.cands {
			if taken[i] || o.costs[i] > budget {
				continue
			}
			cost := o.foldCostMin2(cur, o.row(i))
			if cost < bestCost {
				bestCost = cost
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		taken[bestIdx] = true
		budget -= o.costs[bestIdx]
		row := o.row(bestIdx)
		for j := 0; j < len(row); j++ {
			if row[j] < cur[j] {
				cur[j] = row[j]
			}
		}
		out = append(out, o.cands[bestIdx])
	}
	sort.Ints(out)
	return out, o.foldCost(cur)
}

// ImproveBySwaps runs 1-swap local search from the given strategy: replace
// one bought link with one unbought affordable link whenever that strictly
// lowers cost, until a local optimum or maxRounds is reached. It returns
// the improved strategy and its cost.
func (o *Oracle) ImproveBySwaps(s Strategy, maxRounds int) (Strategy, int64) {
	cur := append(Strategy(nil), s...)
	curCost := o.Evaluate(cur)
	for round := 0; round < maxRounds; round++ {
		improved := false
		spent := cur.TotalCost(o.spec, o.u)
		budget := o.spec.Budget(o.u)
		for si := 0; si < len(cur) && !improved; si++ {
			old := cur[si]
			oldCost := o.spec.LinkCost(o.u, old)
			for _, t := range o.cands {
				if cur.Contains(t) {
					continue
				}
				if spent-oldCost+o.spec.LinkCost(o.u, t) > budget {
					continue
				}
				trial := append(Strategy(nil), cur...)
				trial[si] = t
				trial = NormalizeStrategy(trial)
				if c := o.Evaluate(trial); c < curCost {
					cur, curCost = trial, c
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur, curCost
}
