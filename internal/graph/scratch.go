package graph

import (
	"fmt"

	"bbc/internal/obs"
)

// Scratch holds the reusable storage of the *Into traversal variants: the
// BFS queue, the Dijkstra/frontier binary heap, and the settled-node marks.
// A zero Scratch is ready to use; buffers grow on first use and are then
// reused, so steady-state traversals through a warm Scratch perform no heap
// allocation. A Scratch is not safe for concurrent use — callers that fan
// out (worker pools, parallel partition scans) own one Scratch per
// goroutine.
type Scratch struct {
	// Tally, when non-nil, receives the traversal counts in place of the
	// installed registry: a worker that owns the Scratch hands it its own
	// counter block and flushes that at its own pace.
	Tally *obs.Tally

	queue []int
	pq    []Arc
	done  []bool
}

// tally returns the block a traversal through s counts into; nil (no
// Scratch, or one without a block) counts into the installed registry.
func (s *Scratch) tally() *obs.Tally {
	if s == nil {
		return nil
	}
	return s.Tally
}

// BFSInto is BFS writing into the caller-owned dist buffer, which must have
// length g.N(). The returned slice is dist itself. With a non-nil Scratch
// the traversal reuses its queue storage and allocates nothing once the
// queue has grown to the graph size.
func (g *Digraph) BFSInto(dist []int64, src int, opt Options, s *Scratch) []int64 {
	g.check(src)
	if len(dist) != len(g.adj) {
		panic(fmt.Sprintf("graph: dist buffer has length %d, graph has %d nodes", len(dist), len(g.adj)))
	}
	if opt.Skip == src {
		panic("graph: cannot skip the BFS source")
	}
	t := s.tally()
	t.Inc(obs.MBFS)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	var queue []int
	if s != nil {
		queue = s.queue[:0]
	} else {
		queue = make([]int, 0, len(g.adj))
	}
	queue = append(queue, src)
	// Wave width: nodes dequeue in nondecreasing distance, so counting the
	// run length per distance level costs one compare per node and yields
	// the maximum frontier width — the parallelism a bit-parallel BFS
	// could exploit.
	var curDist, width, maxWidth int64
	// Index-based head pointer: re-slicing the queue head (queue[1:]) would
	// keep the whole backing array live and defeat queue reuse.
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du != curDist {
			if width > maxWidth {
				maxWidth = width
			}
			curDist, width = du, 0
		}
		width++
		for _, a := range g.adj[u] {
			v := a.To
			if v == opt.Skip || dist[v] != Unreachable {
				continue
			}
			dist[v] = du + 1
			queue = append(queue, v)
		}
	}
	if width > maxWidth {
		maxWidth = width
	}
	t.Observe(obs.HBFSWave, maxWidth)
	if s != nil {
		s.queue = queue[:0]
	}
	return dist
}

// DijkstraInto is Dijkstra writing into the caller-owned dist buffer
// (length g.N()), reusing the Scratch's heap and settled-mark storage.
func (g *Digraph) DijkstraInto(dist []int64, src int, opt Options, s *Scratch) []int64 {
	g.check(src)
	if opt.Skip == src {
		panic("graph: cannot skip the Dijkstra source")
	}
	return g.frontierInto(dist, []Arc{{To: src, Len: 0}}, opt, false, s)
}

// frontierInto is the shared multi-source shortest-path core over
// caller-owned buffers. When unit is true, arc lengths are treated as 1
// (BFS semantics with seed offsets).
func (g *Digraph) frontierInto(dist []int64, seeds []Arc, opt Options, unit bool, s *Scratch) []int64 {
	n := len(g.adj)
	if len(dist) != n {
		panic(fmt.Sprintf("graph: dist buffer has length %d, graph has %d nodes", len(dist), n))
	}
	if unit {
		s.tally().Inc(obs.MBFS)
	} else {
		s.tally().Inc(obs.MDijkstra)
	}
	var (
		pq   []Arc
		done []bool
	)
	if s != nil {
		pq = s.pq[:0]
		if cap(s.done) < n {
			s.done = make([]bool, n)
		}
		done = s.done[:n]
		for i := range done {
			done[i] = false
		}
	} else {
		done = make([]bool, n)
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	for _, sd := range seeds {
		if sd.To == opt.Skip {
			continue
		}
		if dist[sd.To] == Unreachable || sd.Len < dist[sd.To] {
			dist[sd.To] = sd.Len
			pq = pushArc(pq, sd)
		}
	}
	for len(pq) > 0 {
		var top Arc
		pq, top = popArc(pq)
		u := top.To
		if done[u] || dist[u] != top.Len {
			continue
		}
		done[u] = true
		du := dist[u]
		for _, a := range g.adj[u] {
			v := a.To
			if v == opt.Skip {
				continue
			}
			step := a.Len
			if unit {
				step = 1
			}
			nd := du + step
			if dist[v] == Unreachable || nd < dist[v] {
				dist[v] = nd
				pq = pushArc(pq, Arc{To: v, Len: nd})
			}
		}
	}
	if s != nil {
		s.pq = pq[:0]
	}
	return dist
}

// pushArc inserts into a concrete binary min-heap of Arc keyed by Len.
// The heap is a plain slice (no container/heap interface), so pushes never
// box values into interfaces and the storage is reusable across calls.
func pushArc(h []Arc, a Arc) []Arc {
	h = append(h, a)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Len <= h[i].Len {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// popArc removes and returns the minimum-Len element.
func popArc(h []Arc) ([]Arc, Arc) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].Len < h[min].Len {
			min = l
		}
		if r < len(h) && h[r].Len < h[min].Len {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return h, top
}
