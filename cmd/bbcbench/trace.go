package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own files only: around
// each call it makes into a layer of the program (a scan, an HTTP round
// trip, a JobStore or FS call, a fleet.Run, a sweep tuple), plus spans
// rebuilt from the server's job views (queue wait, job run). The program's
// own tracer stays off; its per-rebuild spans would swamp the recording.

// span is one timed call into a layer of the program.
type span struct {
	name   string
	layer  string
	job    string // shared by every span of one job ("" outside jobs)
	track  int    // timeline: a client goroutine, a fleet agent, a worker
	parent int    // index of the enclosing span, -1 for a root
	start  time.Time
	end    time.Time
}

// unplaced marks a span recorded by a wrapper that cannot know its job's
// track (store and FS calls run on server goroutines); place assigns it.
const unplaced = -2

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced phase passes nil through the same code.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	tracks []string
	alias  map[string]string // dedup key -> job id, for store lookups by key
}

func newTracer() *tracer { return &tracer{alias: map[string]string{}} }

// track registers a named timeline and returns its id.
func (t *tracer) track(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracks = append(t.tracks, name)
	return len(t.tracks) - 1
}

// open starts a span and returns its handle (-1 when tracing is off).
func (t *tracer) open(name, layer, job string, track, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, job: job, track: track, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// close ends the span opened as h.
func (t *tracer) close(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// setJob names the job of an already-open span (its id is known only once
// the submission answers).
func (t *tracer) setJob(h int, job string) {
	if t == nil || h < 0 {
		return
	}
	t.mu.Lock()
	t.spans[h].job = job
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// aliasKey lets store calls that only know a job's dedup key find the job.
func (t *tracer) aliasKey(key, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.alias[key] = job
	t.mu.Unlock()
}

// place assigns every unplaced span to the innermost span enclosing it in
// time: store calls to a span of their own job, FS calls to the store call
// that issued them. When two store calls overlap (one waits on the store
// lock) the earlier one holds the lock, so an FS call goes to it. Spans no
// job span encloses are dropped from the accounting and counted.
func (t *tracer) place() (orphans int) {
	// A span opened under a job's span belongs to that job; parents are
	// always recorded before their children.
	for i := range t.spans {
		if s := &t.spans[i]; s.job == "" && s.parent >= 0 {
			s.job = t.spans[s.parent].job
		}
	}
	byJob := map[string][]int{}
	for i, s := range t.spans {
		if s.parent != unplaced && s.job != "" {
			byJob[s.job] = append(byJob[s.job], i)
		}
	}
	// Store calls first: they are matched by job id.
	var stores []int
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent != unplaced || s.layer != "store" {
			continue
		}
		if id, ok := t.alias[s.job]; ok {
			s.job = id
		}
		best := -1
		for _, j := range byJob[s.job] {
			if encloses(t.spans[j], *s) && (best < 0 || t.spans[j].start.After(t.spans[best].start)) {
				best = j
			}
		}
		s.parent = best
		if best < 0 {
			s.track = -1
			orphans++
			continue
		}
		s.track = t.spans[best].track
		stores = append(stores, i)
	}
	sort.Slice(stores, func(a, b int) bool { return t.spans[stores[a]].start.Before(t.spans[stores[b]].start) })
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent != unplaced {
			continue
		}
		s.parent = -1
		for _, j := range stores {
			if encloses(t.spans[j], *s) {
				s.parent, s.job, s.track = j, t.spans[j].job, t.spans[j].track
				break
			}
		}
		if s.parent < 0 {
			s.track = -1
			orphans++
		}
	}
	return orphans
}

func encloses(outer, inner span) bool {
	return !inner.start.Before(outer.start) && !inner.end.After(outer.end)
}

// depth orders layers from the caller inward. A server-side span can
// start before the client's HTTP call that waits for it (a job starts
// running while its POST answer is in flight), so the innermost of two
// overlapping spans is the one of the deeper layer, then the later one.
var depth = map[string]int{
	"client": 0, "fleet": 0, "sweep": 0,
	"core": 1, "http": 1,
	"serve": 2,
	"store": 3, "runctl": 3,
	"fs": 4,
}

func (t *tracer) inner(a, b int) bool {
	sa, sb := t.spans[a], t.spans[b]
	if da, db := depth[sa.layer], depth[sb.layer]; da != db {
		return da > db
	}
	return sa.start.After(sb.start)
}

// layerTable is the traced run's time budget: every instant of every
// track is charged to the innermost span covering it, so a span's self
// time is its duration minus what its children cover, and self times plus
// unattributed time add up to tracks × wall.
type layerTable struct {
	WallS         float64            `json:"wall_s"`
	Tracks        int                `json:"tracks"`
	TrackWallS    float64            `json:"track_wall_s"`
	SelfS         map[string]float64 `json:"self_s"`
	UnattributedS float64            `json:"unattributed_s"`
	Spans         int                `json:"spans"`
	Orphans       int                `json:"orphan_spans"`
}

// table charges the window [from, to] of every track.
func (t *tracer) table(from, to time.Time) *layerTable {
	orphans := t.place()
	lt := &layerTable{
		WallS:   to.Sub(from).Seconds(),
		Tracks:  len(t.tracks),
		SelfS:   map[string]float64{},
		Spans:   len(t.spans),
		Orphans: orphans,
	}
	lt.TrackWallS = lt.WallS * float64(lt.Tracks)
	perTrack := make([][]int, len(t.tracks))
	for i, s := range t.spans {
		if s.parent != unplaced && s.track >= 0 && s.track < len(perTrack) && !s.end.IsZero() {
			perTrack[s.track] = append(perTrack[s.track], i)
		}
	}
	for _, idx := range perTrack {
		attributed := t.sweep(idx, from, to, lt.SelfS)
		lt.UnattributedS += to.Sub(from).Seconds() - attributed
	}
	return lt
}

// sweep walks one track's span boundaries in time order and charges each
// segment to the innermost active span. It returns the attributed seconds.
func (t *tracer) sweep(idx []int, from, to time.Time, self map[string]float64) float64 {
	type edge struct {
		at    time.Time
		span  int
		enter bool
	}
	clip := func(x time.Time) time.Time {
		if x.Before(from) {
			return from
		}
		if x.After(to) {
			return to
		}
		return x
	}
	edges := make([]edge, 0, 2*len(idx))
	for _, i := range idx {
		s, e := clip(t.spans[i].start), clip(t.spans[i].end)
		if !e.After(s) {
			continue
		}
		edges = append(edges, edge{s, i, true}, edge{e, i, false})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].at.Before(edges[b].at) })
	var (
		active     []int
		attributed float64
		last       = from
	)
	for _, e := range edges {
		if seg := e.at.Sub(last).Seconds(); seg > 0 && len(active) > 0 {
			inner := active[0]
			for _, a := range active[1:] {
				if t.inner(a, inner) {
					inner = a
				}
			}
			self[t.spans[inner].layer] += seg
			attributed += seg
		}
		last = e.at
		if e.enter {
			active = append(active, e.span)
			continue
		}
		for k, a := range active {
			if a == e.span {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}
	return attributed
}

// writeChrome writes the spans as a Chrome trace-event file (loadable in
// chrome://tracing or Perfetto): one thread per track, span args carry
// the job id and the enclosing span.
func (t *tracer) writeChrome(path string, epoch time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for i, name := range t.tracks {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]any{"name": name}})
	}
	for i, s := range t.spans {
		if s.end.IsZero() || s.parent == unplaced || s.track < 0 {
			continue
		}
		args := map[string]any{"span": i, "parent": s.parent}
		if s.job != "" {
			args["job"] = s.job
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
