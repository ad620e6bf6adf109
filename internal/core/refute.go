package core

import "bbc/internal/graph"

// refuter is the static dominance pass that scans of a pinned space run
// before evaluating any profile. It rests on one monotonicity fact: a
// node's cost, under either aggregation, can only fall when the other
// nodes buy more arcs. Added arcs only shorten distances, and Seal makes
// the penalty M exceed every finite distance, so an arc that turns a
// disconnection into a path lowers the cost too.
//
// Fix node u's strategy s. LB(s) is u's cost when every other node buys
// the union of its live strategies' arcs (the upper graph); UB(s′) is u's
// cost under s′ when every other node buys only the arcs all its live
// strategies share (the lower graph). In every profile of the space whose
// strategies are all live, u's cost under s is at least LB(s) and its
// cost under s′ at most UB(s′). So if some budget-feasible s′ has
// UB(s′) < LB(s), u strictly improves by deviating in every such profile,
// and no profile with u playing s is an equilibrium: s is refuted.
// Refuting shrinks the live sets, which tightens every other node's
// bounds, so the pass repeats until a round refutes nothing. The
// refutation operator is monotone, so that fixpoint is unique.
//
// s′ ranges over every feasible strategy of u, not only u's set in the
// space: HasImprovement on u's lower-graph oracle, with LB(s) as the
// incumbent, decides whether any feasible s′ has UB(s′) < LB(s). That is
// what lets a partition or fleet shard, whose pivot digit holds a single
// strategy, refute its pivot and with it the whole sub-space.
//
// A refuter owns only buffers; scans reuse one across the partitions a
// worker drains, so the pass allocates nothing once warm.
type refuter struct {
	up, low       *graph.Digraph // the upper and lower bound graphs
	hits          []int          // hits[v]: live strategies of one node that buy v
	union, common Strategy       // one node's upper- and lower-graph arcs

	off    []int    // off[u]: u's first slot in live and lb
	live   []bool   // live[off[u]+i]: strategy i of u is not refuted
	count  []int    // count[u]: u's live strategies
	lb     []int64  // lb[off[u]+i]: LB of strategy i of u in the current round
	next   []int    // next[off[u]+u+i]: u's first live index ≥ i, len(set) if none
	digits []int    // nodes holding a refuted strategy, ascending
	suff   []uint64 // suff[u]: states of the odometer suffix starting at digit u
	dead   bool     // some node has no live strategy: the space holds no equilibrium
}

// run computes the fixpoint over ss's strategy sets, using es as the
// traversal scratch (it is left bound to a bound graph; the scan rebinds
// it). It reports whether any strategy was refuted: false leaves gap
// nothing to skip, and so does a space too large to rank in uint64.
func (r *refuter) run(spec Spec, agg Aggregation, ss *SearchSpace, es *EvalScratch) bool {
	n := spec.N()
	r.suff = grow(r.suff, n+1)
	r.suff[n] = 1
	for u := n - 1; u >= 0; u-- {
		w := uint64(len(ss.PerNode[u]))
		if r.suff[u+1] > (uint64(1)<<62)/w {
			return false
		}
		r.suff[u] = r.suff[u+1] * w
	}
	r.off = grow(r.off, n+1)
	r.off[0] = 0
	for u := 0; u < n; u++ {
		r.off[u+1] = r.off[u] + len(ss.PerNode[u])
	}
	total := r.off[n]
	r.live = grow(r.live, total)
	for k := range r.live {
		r.live[k] = true
	}
	r.count = grow(r.count, n)
	for u := range r.count {
		r.count[u] = len(ss.PerNode[u])
	}
	r.lb = grow(r.lb, total)
	r.hits = grow(r.hits, n)
	if r.up == nil || r.up.N() != n {
		r.up, r.low = graph.New(n), graph.New(n)
	}
	r.dead = false

	refuted := false
	for changed := true; changed; {
		changed = false
		for w := 0; w < n; w++ {
			r.bounds(ss, w)
			setStrategyArcs(spec, r.up, w, r.union)
			setStrategyArcs(spec, r.low, w, r.common)
		}
		// Alternating between the two graphs re-binds es every time, which
		// invalidates every cached oracle: the arcs changed under both.
		es.Bind(spec, r.up, agg)
		for u := 0; u < n; u++ {
			o := es.OracleFor(u)
			for i, s := range ss.PerNode[u] {
				if k := r.off[u] + i; r.live[k] {
					r.lb[k] = o.Evaluate(s)
				}
			}
		}
		es.Bind(spec, r.low, agg)
		for u := 0; u < n; u++ {
			o := es.OracleFor(u)
			for i := range ss.PerNode[u] {
				if k := r.off[u] + i; r.live[k] && o.HasImprovement(r.lb[k]) {
					r.live[k] = false
					r.count[u]--
					changed, refuted = true, true
				}
			}
			if r.count[u] == 0 {
				r.dead = true
				return true
			}
		}
	}
	if !refuted {
		return false
	}
	r.next = grow(r.next, total+n)
	r.digits = r.digits[:0]
	for u := 0; u < n; u++ {
		m, base := len(ss.PerNode[u]), r.off[u]+u
		r.next[base+m] = m
		for i := m - 1; i >= 0; i-- {
			if r.live[r.off[u]+i] {
				r.next[base+i] = i
			} else {
				r.next[base+i] = r.next[base+i+1]
			}
		}
		if r.count[u] < m {
			r.digits = append(r.digits, u)
		}
	}
	return true
}

// bounds fills r.union and r.common with the arcs node w buys in the upper
// and the lower graph: the union and the intersection of its live
// strategies. Both come out ascending, as strategies must.
func (r *refuter) bounds(ss *SearchSpace, w int) {
	for v := range r.hits {
		r.hits[v] = 0
	}
	for i, s := range ss.PerNode[w] {
		if r.live[r.off[w]+i] {
			for _, v := range s {
				r.hits[v]++
			}
		}
	}
	r.union, r.common = r.union[:0], r.common[:0]
	for v, h := range r.hits {
		if h > 0 {
			r.union = append(r.union, v)
			if h == r.count[w] {
				r.common = append(r.common, v)
			}
		}
	}
}

// gap returns the number of odometer states from idx (inclusive) that
// precede the next state whose every strategy is live: 0 when idx itself
// is live. Every state it counts holds a refuted strategy, so none is an
// equilibrium. end reports that no live state follows, so the count runs
// to the end of the space.
func (r *refuter) gap(ss *SearchSpace, idx []int) (uint64, bool) {
	if !r.dead {
		l := -1
		for _, u := range r.digits {
			if !r.live[r.off[u]+idx[u]] {
				l = u
				break
			}
		}
		if l < 0 {
			return 0, false
		}
		// The next live state keeps the digits before some d ≤ l, steps d to
		// its next live strategy, and restarts every later digit at its
		// first live strategy; d is the deepest digit that has one left.
		for d := l; d >= 0; d-- {
			j := r.next[r.off[d]+d+idx[d]+1]
			if j == len(ss.PerNode[d]) {
				continue
			}
			delta := int64(j-idx[d]) * int64(r.suff[d+1])
			for e := d + 1; e < len(idx); e++ {
				delta += int64(r.next[r.off[e]+e]-idx[e]) * int64(r.suff[e+1])
			}
			return uint64(delta), false
		}
	}
	return r.suff[0] - rank(r.suff, idx), true
}

// rank returns an odometer state's position in scan order, given the
// suffix sizes of its space (suff[u] states from digit u on).
func rank(suff []uint64, idx []int) uint64 {
	var k uint64
	for u, i := range idx {
		k += uint64(i) * suff[u+1]
	}
	return k
}
