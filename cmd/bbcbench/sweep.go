package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bbc/internal/sweep"
)

// sweepPin is the sha256 of the deterministic CSV (header plus
// CSVRecord(true) rows) of the first grid seed 1 runs. Any change to what
// a tuple computes, or how it is rendered, changes it.
const sweepPin = "7f28f8ef5d17db81c97e21ff9c008fbbb25a2f442bdbf4d7c6656d01a469f1a1"

// sweepRechecks is how many tuples are re-run after the timed phases;
// each must render the same row again.
const sweepRechecks = 8

// sweepGrid is the grid one operation runs: every workload, length
// distribution and aggregation at n ∈ {5, 6} and budgets k ∈ {1, 2}. The
// k=2 and MAX tuples exercise BestExact branch and bound, the social
// optimum and PoA, and walks; the gadget scan skips these through its
// budget-1 fast path. With --smoke the grid shrinks to n=4.
func sweepGrid(smoke bool, seed int64) sweep.Config {
	c := sweep.Config{
		Workloads:   sweep.Workloads,
		Dists:       sweep.Dists,
		Aggs:        sweep.Aggs,
		Ns:          []int{5, 6},
		Ks:          []int{1, 2},
		Trials:      1,
		MaxProfiles: 1 << 18,
		Seed:        seed,
	}
	if smoke {
		c.Ns = []int{4}
	}
	return c
}

// gridSeed is the sweep seed of operation i: each operation runs the grid
// on fresh random instances and start profiles.
func gridSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// sweepWorkload runs sweep.Run over the grid again and again. Nothing
// goes over HTTP or to disk.
type sweepWorkload struct {
	e      *env
	next   int
	passes []gridPass
}

// gridPass is one completed grid: its config and every tuple's
// deterministic CSV row, in tuple order.
type gridPass struct {
	cfg  sweep.Config
	rows [][]string
}

// setup warms up on the small --smoke grid, always with the same seed so
// the set-up time does not vary with the run's seed.
func (w *sweepWorkload) setup(e *env) error {
	w.e = e
	w.next = 0
	w.passes = nil
	sum, err := sweep.Run(sweepGrid(true, 0), sweep.RunConfig{})
	if err != nil {
		return err
	}
	if sum.Completed != sum.Total || sum.Failures != 0 {
		return fmt.Errorf("warm-up grid: %d/%d tuples, %d failed", sum.Completed, sum.Total, sum.Failures)
	}
	return nil
}

func (w *sweepWorkload) teardown() {}

func (w *sweepWorkload) engineThreads() int { return 1 }

func (w *sweepWorkload) counters() (snapshot, error) { return localSnapshot(w.e.reg), nil }

func (w *sweepWorkload) workerPIDs() []int { return nil }

func (w *sweepWorkload) run(ph *phase, ops int, until time.Time) {
	track := ph.tr.track("sweep")
	for i := 0; i < ops && time.Now().Before(until); i++ {
		pass := &gridPass{cfg: sweepGrid(w.e.smoke, gridSeed(w.e.seed, w.next))}
		first := w.next == 0
		w.next++
		last := time.Now()
		t0 := last
		sum, err := sweep.Run(pass.cfg, sweep.RunConfig{OnResult: func(r *sweep.Result, _ bool) {
			now := time.Now()
			ph.tr.add(span{name: "tuple." + r.Workload, layer: "sweep", track: track, parent: -1, start: last, end: now})
			last = now
			pass.rows = append(pass.rows, r.CSVRecord(true))
		}})
		d := time.Since(t0)
		if err == nil {
			err = w.check(pass, sum, first)
		}
		if err == nil {
			w.passes = append(w.passes, *pass)
		}
		ph.record(d, err)
	}
}

// check is the per-grid gate: every tuple ran and passed, and seed 1's
// first grid renders to the pinned CSV.
func (w *sweepWorkload) check(p *gridPass, sum *sweep.Summary, first bool) error {
	if sum.Status.String() != "complete" || sum.Completed != sum.Total || sum.Failures != 0 {
		return fmt.Errorf("grid ended %s with %d/%d tuples, %d failed", sum.Status, sum.Completed, sum.Total, sum.Failures)
	}
	if first && w.e.seed == 1 && !w.e.smoke {
		if got := gridHash(p); got != sweepPin {
			return fmt.Errorf("seed 1 grid CSV sha256 %s, pinned %s", got, sweepPin)
		}
	}
	return nil
}

// gridHash is the sha256 of the grid's deterministic CSV.
func gridHash(p *gridPass) string {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write(sweep.Columns) //nolint:errcheck // bytes.Buffer writes cannot fail
	cw.WriteAll(p.rows)     //nolint:errcheck
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// verify re-runs sweepRechecks tuples drawn from the completed grids:
// each must render the same deterministic row as the first time. The
// other tuples of a grid are marked done (their results are not needed),
// so sweep.Run runs only the drawn ones.
func (w *sweepWorkload) verify(ph *phase) {
	if len(w.passes) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(w.e.seed))
	picks := map[int]map[int]bool{}
	for i := 0; i < sweepRechecks; i++ {
		p := rng.Intn(len(w.passes))
		if picks[p] == nil {
			picks[p] = map[int]bool{}
		}
		picks[p][rng.Intn(len(w.passes[p].rows))] = true
	}
	for p, tuples := range picks {
		pass := w.passes[p]
		done := map[int]*sweep.Result{}
		for i := range pass.rows {
			if !tuples[i] {
				done[i] = &sweep.Result{}
			}
		}
		_, err := sweep.Run(pass.cfg, sweep.RunConfig{Done: done, OnResult: func(r *sweep.Result, resumed bool) {
			if resumed {
				return
			}
			want := strings.Join(pass.rows[r.Index], ",")
			if got := strings.Join(r.CSVRecord(true), ","); got != want {
				ph.failLate(fmt.Errorf("tuple %d re-ran to %q, first run %q", r.Index, got, want))
			}
		}})
		if err != nil {
			ph.failLate(fmt.Errorf("re-run grid: %w", err))
		}
	}
}
