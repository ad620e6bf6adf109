package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bbc/internal/construct"
	"bbc/internal/core"
)

// gadgetProfiles is the size of the pinned Theorem 1 search space.
const gadgetProfiles = 7_529_536

// smokeProfiles is the size of the --smoke game's space (7 players,
// budget 1: 7^7 profiles), about a ninth of the gadget's.
const smokeProfiles = 823_543

// scanGame is the game one scan or merge runs: the Theorem 1 gadget or,
// with --smoke, a 7-player unit game with budget 1. Every preference
// weight is multiplied by scale. That multiplies every cost by the same
// factor, so best responses, the scan's work and its verdict are
// unchanged, while each operation gets a distinct game: the job service
// cannot answer a repeated merge from its dedup cache.
func scanGame(smoke bool, scale int64) *core.Dense {
	var d *core.Dense
	if smoke {
		d = core.NewDense(7)
	} else {
		d = construct.MatchingPennies(construct.DefaultGadgetWeights())
	}
	for u := range d.Weights {
		for v := range d.Weights[u] {
			d.Weights[u][v] *= scale
		}
	}
	return d.MustSeal()
}

// scales draws the distinct weight multipliers of a run from its seed.
func scales(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(4096)
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = int64(p) + 1
	}
	return out
}

// neJSON is the byte form the gates compare: a scan's NEResult as JSON.
func neJSON(res *core.NEResult) []byte {
	data, err := json.Marshal(res)
	if err != nil {
		return []byte(err.Error())
	}
	return data
}

// checkNE is the gate every scan and merge passes: the whole space
// checked, a complete status, and (for the gadget) no equilibrium.
func checkNE(smoke bool, res *core.NEResult) error {
	want := uint64(gadgetProfiles)
	if smoke {
		want = smokeProfiles
	}
	switch {
	case !res.Complete:
		return fmt.Errorf("scan incomplete: status %s after %d profiles", res.Status, res.Checked)
	case res.Checked != want:
		return fmt.Errorf("scan checked %d profiles, want %d", res.Checked, want)
	case !smoke && len(res.Equilibria) != 0:
		return fmt.Errorf("gadget scan found %d equilibria; Theorem 1 says none exist", len(res.Equilibria))
	}
	return nil
}

// scanWorkload is bbcsim -enumerate -pin with default flags, back to back:
// the pinned space is built and scanned by EnumeratePureNEParallelOpts
// with Workers = GOMAXPROCS and an otherwise zero EnumConfig. Nothing
// but graph and core runs.
type scanWorkload struct {
	e      *env
	scales []int64
	next   int
	ref    []byte // NEResult JSON of the first scan; every later one must match
}

// warmProfiles is the slice of the first game set-up scans to warm up.
const warmProfiles = 1 << 17

func (w *scanWorkload) setup(e *env) error {
	w.e = e
	w.scales = scales(e.seed)
	w.next = 0
	spec := scanGame(e.smoke, w.scales[0])
	ss, err := core.PinnedSpace(spec, 0)
	if err != nil {
		return err
	}
	res, err := core.EnumeratePureNEParallelOpts(spec, core.SumDistances, ss,
		core.EnumConfig{Workers: runtime.GOMAXPROCS(0), MaxProfiles: warmProfiles})
	if err != nil {
		return err
	}
	if res.Checked != warmProfiles {
		return fmt.Errorf("warm-up scan checked %d profiles, want %d", res.Checked, warmProfiles)
	}
	return nil
}

func (w *scanWorkload) teardown() {}

func (w *scanWorkload) engineThreads() int { return runtime.GOMAXPROCS(0) }

func (w *scanWorkload) counters() (snapshot, error) { return localSnapshot(w.e.reg), nil }

func (w *scanWorkload) workerPIDs() []int { return nil }

func (w *scanWorkload) run(ph *phase, ops int, until time.Time) {
	track := ph.tr.track("scan")
	for i := 0; i < ops && time.Now().Before(until); i++ {
		spec := scanGame(w.e.smoke, w.scales[w.next%len(w.scales)])
		w.next++
		h := ph.tr.open("scan", "core", "", track, -1)
		t0 := time.Now()
		res, err := scanPinned(spec, runtime.GOMAXPROCS(0))
		d := time.Since(t0)
		ph.tr.close(h)
		if err == nil {
			err = w.check(res)
		}
		ph.record(d, err)
	}
}

// scanPinned is the operation itself: build the pinned space, scan it.
func scanPinned(spec core.Spec, workers int) (*core.NEResult, error) {
	ss, err := core.PinnedSpace(spec, 0)
	if err != nil {
		return nil, err
	}
	if workers == 1 {
		return core.EnumeratePureNEOpts(spec, core.SumDistances, ss, core.EnumConfig{})
	}
	return core.EnumeratePureNEParallelOpts(spec, core.SumDistances, ss, core.EnumConfig{Workers: workers})
}

func (w *scanWorkload) check(res *core.NEResult) error {
	if err := checkNE(w.e.smoke, res); err != nil {
		return err
	}
	got := neJSON(res)
	if w.ref == nil {
		w.ref = got
	}
	if !bytes.Equal(got, w.ref) {
		return fmt.Errorf("scan result %s differs from the first scan's %s", got, w.ref)
	}
	return nil
}

// verify has nothing left to check: every scan was checked as it ended.
func (w *scanWorkload) verify(*phase) {}
