package construct

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"bbc/internal/core"
	"bbc/internal/dynamics"
	"bbc/internal/obs"
)

func TestMatchingPenniesShape(t *testing.T) {
	d := MatchingPennies(DefaultGadgetWeights())
	if d.N() != gadgetSize {
		t.Fatalf("N = %d, want %d", d.N(), gadgetSize)
	}
	if !d.UnitLengths() {
		t.Fatal("gadget must have uniform unit lengths")
	}
	for u := 0; u < d.N(); u++ {
		if d.Budget(u) != 1 {
			t.Fatalf("node %d budget %d, want uniform 1", u, d.Budget(u))
		}
	}
	labels := GadgetLabels()
	if len(labels) != gadgetSize {
		t.Fatalf("labels cover %d nodes, want %d", len(labels), gadgetSize)
	}
}

func TestIntendedProfilesAreValidAndUnstable(t *testing.T) {
	// Theorem 1's cycle: every intended state must admit a strictly
	// improving deviation, and the deviator must be a central node
	// switching its top.
	d := MatchingPennies(DefaultGadgetWeights())
	for _, st := range []struct{ c0, c1 bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		p := IntendedGadgetProfile(st.c0, st.c1)
		if err := p.Validate(d); err != nil {
			t.Fatalf("state (%v,%v): invalid profile: %v", st.c0, st.c1, err)
		}
		dev, err := core.FindDeviation(d, p, core.SumDistances, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dev == nil {
			t.Fatalf("state (%v,%v): stable, but the gadget must have no equilibrium", st.c0, st.c1)
		}
		if dev.Node != G0C && dev.Node != G1C {
			t.Fatalf("state (%v,%v): deviator %d is not a center", st.c0, st.c1, dev.Node)
		}
	}
}

func TestGadgetBestResponseCycle(t *testing.T) {
	// Following best responses from any intended state must cycle through
	// the four intended states and never stabilize.
	d := MatchingPennies(DefaultGadgetWeights())
	p := IntendedGadgetProfile(true, true)
	res, err := dynamics.Run(d, p, dynamics.NewRoundRobin(d.N()), core.SumDistances,
		dynamics.Options{MaxSteps: 20 * d.N(), DetectLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("round-robin walk converged on the no-equilibrium gadget: %v", res.Final)
	}
	if res.Loop == nil {
		t.Fatal("expected a certified best-response loop on the gadget")
	}
	if len(res.Loop.Moves) == 0 {
		t.Fatal("loop has no moves")
	}
}

func TestGadgetPinnedSpacePinsExpectedNodes(t *testing.T) {
	d := MatchingPennies(DefaultGadgetWeights())
	ss, err := core.PinnedSpace(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinned := []int{G0LT, G0RT, G1LT, G1RT, GX0, GX1, GTA, GTB}
	for _, u := range pinned {
		if len(ss.PerNode[u]) != 1 {
			t.Fatalf("node %d should be pinned, has %d strategies", u, len(ss.PerNode[u]))
		}
	}
	free := []int{G0C, G1C, G0LB, G0RB, G1LB, G1RB}
	for _, u := range free {
		if len(ss.PerNode[u]) != gadgetSize {
			t.Fatalf("free node %d has %d strategies, want %d (empty + 13 singletons)",
				u, len(ss.PerNode[u]), gadgetSize)
		}
	}
}

func TestGadgetHasNoPureNashEquilibrium(t *testing.T) {
	// The full Theorem 1 verification: exhaustive scan of the pinned
	// product space (≈7.5M profiles, parallel over the first free node's strategies). The pin rule is sound, so zero
	// equilibria here means zero equilibria in the full game.
	if testing.Short() {
		t.Skip("exhaustive no-NE scan skipped in -short")
	}
	d := MatchingPennies(DefaultGadgetWeights())
	ss, err := core.PinnedSpace(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EnumeratePureNEParallelOpts(d, core.SumDistances, ss, core.EnumConfig{MaxEquilibria: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("scan did not complete")
	}
	if len(res.Equilibria) != 0 {
		t.Fatalf("gadget has %d pure equilibria, want 0; first: %v",
			len(res.Equilibria), res.Equilibria[0])
	}
}

// TestGadgetPinnedScanRefutesStatically pins how much of Theorem 1 the
// dominance pass decides: it leaves 9 of 14 strategies at each of the six
// free nodes, so a serial scan evaluates 9^6 = 531,441 profiles and
// credits the other 6,998,095 of the 7,529,536 as refuted.
func TestGadgetPinnedScanRefutesStatically(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetGlobal(reg)
	defer obs.SetGlobal(prev)
	d := MatchingPennies(DefaultGadgetWeights())
	ss, err := core.PinnedSpace(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EnumeratePureNEOpts(d, core.SumDistances, ss, core.EnumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Checked != 7_529_536 || len(res.Equilibria) != 0 {
		t.Fatalf("scan: complete %v, checked %d, %d equilibria; want complete, 7529536, none",
			res.Complete, res.Checked, len(res.Equilibria))
	}
	for m, want := range map[obs.Metric]int64{
		obs.MProfilesChecked: 7_529_536,
		obs.MProfilesRefuted: 6_998_095,
		obs.MStabilityChecks: 531_441,
	} {
		if got := reg.Get(m); got != want {
			t.Errorf("%s = %d, want %d", m, got, want)
		}
	}
}

// TestGadgetRefuteDifferential compares pruned and exhaustive scans of the
// gadget's pinned space, a game with no equilibrium: serial budget stops
// and every periodic checkpoint carry identical bytes, and each side's
// stop resumes on the other side to the committed whole-scan result.
func TestGadgetRefuteDifferential(t *testing.T) {
	d := MatchingPennies(DefaultGadgetWeights())
	on, err := core.PinnedSpace(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := &core.SearchSpace{PerNode: on.PerNode} // a literal space scans exhaustively
	scan := func(ss *core.SearchSpace, cfg core.EnumConfig) ([]byte, *core.NEResult) {
		t.Helper()
		var snaps []*core.EnumCheckpoint
		cfg.CheckpointEvery = 1 << 16
		cfg.OnCheckpoint = func(cp *core.EnumCheckpoint) { snaps = append(snaps, cp) }
		res, err := core.EnumeratePureNEOpts(d, core.SumDistances, ss, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(struct {
			Res   *core.NEResult
			Snaps []*core.EnumCheckpoint
		}{res, snaps})
		if err != nil {
			t.Fatal(err)
		}
		return data, res
	}
	for _, budget := range []uint64{1, 4097, 1 << 17, 300_001} {
		got, pruned := scan(on, core.EnumConfig{MaxProfiles: budget})
		want, plain := scan(off, core.EnumConfig{MaxProfiles: budget})
		if !bytes.Equal(got, want) {
			t.Fatalf("budget %d: pruned scan diverged\n got: %s\nwant: %s", budget, got, want)
		}
		if budget < 1<<16 {
			continue
		}
		// Resuming the exhaustive stop on the exhaustive side would rescan
		// millions of profiles; the pruned side finishes either stop fast.
		for _, from := range []*core.NEResult{pruned, plain} {
			res, err := core.EnumeratePureNEOpts(d, core.SumDistances, on, core.EnumConfig{Resume: from.Resume})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf(`{"checked":%d,"equilibria":%d,"complete":%v}`, res.Checked, len(res.Equilibria), res.Complete); got != `{"checked":7529536,"equilibria":0,"complete":true}` {
				t.Fatalf("budget %d: resumed scan ended %s", budget, got)
			}
		}
	}
}
