package graph

import (
	"fmt"
	"math/bits"

	"bbc/internal/obs"
)

// BitScratch holds the reusable storage of bit-parallel multi-source BFS
// (BFSBatchInto): one uint64 word per node for the settled-reachability,
// current-frontier and next-frontier bit sets (bit i belongs to source i of
// the batch), plus the two frontier node lists. A zero BitScratch is ready
// to use; buffers grow to the graph size on first use and are then reused,
// so steady-state batched traversals perform no heap allocation. A
// BitScratch is not safe for concurrent use — parallel callers own one per
// goroutine, exactly like Scratch.
type BitScratch struct {
	// Tally, when non-nil, receives the traversal counts in place of the
	// installed registry, as Scratch.Tally does.
	Tally *obs.Tally

	reach    []uint64 // reach[v] bit i set: source i has settled v
	cur      []uint64 // frontier bits discovered at the previous wave
	next     []uint64 // frontier bits being discovered at this wave
	frontier []int    // nodes with nonzero cur words
	incoming []int    // nodes with nonzero next words
}

// reset sizes the scratch for an n-node graph and clears all state. The
// word arrays are zeroed in one pass each; the node lists are emptied.
func (bs *BitScratch) reset(n int) {
	if cap(bs.reach) < n {
		bs.reach = make([]uint64, n)
		bs.cur = make([]uint64, n)
		bs.next = make([]uint64, n)
	}
	bs.reach = bs.reach[:n]
	bs.cur = bs.cur[:n]
	bs.next = bs.next[:n]
	for i := range bs.reach {
		bs.reach[i] = 0
		bs.cur[i] = 0
		bs.next[i] = 0
	}
	bs.frontier = bs.frontier[:0]
	bs.incoming = bs.incoming[:0]
}

// BatchWidth is the number of sources one BFSBatchInto call can serve: one
// bit of a uint64 word per source.
const BatchWidth = 64

// BFSBatchInto runs unit-length BFS from up to BatchWidth sources in one
// level-synchronized traversal: every wave expands the frontier of all
// sources at once, with set union, new-node detection and distance
// assignment done as uint64 bit operations. Against s sources it does the
// work of s BFSInto calls while touching each arc once per wave instead of
// once per source per wave, which is where the oracle's n−1 node-deleted
// rebuilds spend their time on uniform-length specs.
//
// dist is the caller-owned flat distance buffer of length len(srcs)*g.N():
// source i's distances occupy dist[i*n : (i+1)*n], written exactly as
// BFSInto would (hop counts, Unreachable for nodes no path reaches).
// opt.Skip deletes a node from the traversal as in BFSInto; no source may
// equal it. With a non-nil BitScratch the traversal reuses its storage and
// allocates nothing once the buffers have grown to the graph size.
func (g *Digraph) BFSBatchInto(dist []int64, srcs []int, opt Options, bs *BitScratch) {
	n := len(g.adj)
	if len(srcs) == 0 || len(srcs) > BatchWidth {
		panic(fmt.Sprintf("graph: batch of %d sources, want 1..%d", len(srcs), BatchWidth))
	}
	if len(dist) != len(srcs)*n {
		panic(fmt.Sprintf("graph: dist buffer has length %d, want %d sources x %d nodes", len(dist), len(srcs), n))
	}
	for _, s := range srcs {
		g.check(s)
		if s == opt.Skip {
			panic("graph: cannot skip a batch BFS source")
		}
	}
	if bs == nil {
		bs = &BitScratch{}
	}
	t := bs.Tally
	t.Inc(obs.MBFSBatch)
	t.Add(obs.MBFSBatchSources, int64(len(srcs)))
	bs.reset(n)
	for i := range dist {
		dist[i] = Unreachable
	}
	for i, s := range srcs {
		if bs.reach[s] == 0 {
			bs.frontier = append(bs.frontier, s)
		}
		bit := uint64(1) << uint(i)
		bs.reach[s] |= bit
		bs.cur[s] |= bit
		dist[i*n+s] = 0
	}
	cur, nxt := bs.frontier, bs.incoming
	var level, waves int64
	var maxWidth int64
	for len(cur) > 0 {
		if w := int64(len(cur)); w > maxWidth {
			maxWidth = w
		}
		level++
		waves++
		for _, u := range cur {
			f := bs.cur[u]
			bs.cur[u] = 0
			for _, a := range g.adj[u] {
				v := a.To
				if v == opt.Skip {
					continue
				}
				// New bits for v: sources that reached u last wave and have
				// not settled v yet. reach is stable within a wave, so the
				// mask is exact no matter how many frontier nodes feed v.
				nw := f &^ bs.reach[v]
				if nw == 0 {
					continue
				}
				if bs.next[v] == 0 {
					nxt = append(nxt, v)
				}
				bs.next[v] |= nw
			}
		}
		cur = cur[:0]
		for _, v := range nxt {
			nw := bs.next[v]
			bs.next[v] = 0
			bs.reach[v] |= nw
			bs.cur[v] = nw
			for b := nw; b != 0; b &= b - 1 {
				dist[bits.TrailingZeros64(b)*n+v] = level
			}
		}
		cur, nxt = nxt, cur
	}
	bs.frontier, bs.incoming = cur[:0], nxt[:0]
	t.Add(obs.MBFSBatchWaves, waves)
	t.Observe(obs.HBFSWave, maxWidth)
}
