package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// refutePair returns two views of ss's strategy sets: one whose scans run
// the static dominance pass and skip what it refutes, and one scanned
// exhaustively.
func refutePair(ss *SearchSpace) (on, off *SearchSpace) {
	return &SearchSpace{PerNode: ss.PerNode, refute: true}, &SearchSpace{PerNode: ss.PerNode}
}

// scanAt runs the serial scan at w = 1 and the partitioned one otherwise.
func scanAt(t *testing.T, spec Spec, agg Aggregation, ss *SearchSpace, w int, cfg EnumConfig) *NEResult {
	t.Helper()
	var (
		res *NEResult
		err error
	)
	if w == 1 {
		res, err = EnumeratePureNEOpts(spec, agg, ss, cfg)
	} else {
		cfg.Workers = w
		res, err = EnumeratePureNEParallelOpts(spec, agg, ss, cfg)
	}
	if err != nil {
		t.Fatalf("scan (workers %d): %v", w, err)
	}
	return res
}

// refuteGames draws the differential games: 4-node Dense games with
// random weights, costs, budgets and (for half) non-unit lengths, each
// scanned over its full space, over its pinned space when it has unit
// lengths, and over a sub-space holding no equilibrium under sum costs:
// node 0 keeps only the strategies no such equilibrium plays. (Small
// random games almost always have equilibria; the 14-node Theorem 1
// gadget, which has none, is differentially tested in construct.) Spaces
// above maxProfiles are skipped to keep the test short.
func refuteGames(t *testing.T, seed int64, trials int, maxProfiles uint64) (specs []Spec, spaces []*SearchSpace) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for len(specs) < trials {
		spec := randomDense(rng, 4)
		full, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if full.Size() > maxProfiles {
			continue
		}
		specs, spaces = append(specs, spec), append(spaces, full)
		if spec.UnitLengths() {
			pinned, err := PinnedSpace(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			specs, spaces = append(specs, spec), append(spaces, pinned)
		}
		res, err := EnumeratePureNE(spec, SumDistances, full, 0)
		if err != nil {
			t.Fatal(err)
		}
		sub := &SearchSpace{PerNode: append([][]Strategy(nil), full.PerNode...)}
		sub.PerNode[0] = nil
		for _, s := range full.PerNode[0] {
			played := false
			for _, eq := range res.Equilibria {
				played = played || eq[0].Equal(s)
			}
			if !played {
				sub.PerNode[0] = append(sub.PerNode[0], s)
			}
		}
		if len(sub.PerNode[0]) > 0 {
			specs, spaces = append(specs, spec), append(spaces, sub)
		}
	}
	return specs, spaces
}

// TestRefuteDifferential demands that the pruned scan's NEResult JSON —
// equilibria, Checked, status and resume state — be byte-identical to
// the exhaustive scan's: for complete scans and MaxEquilibria stops at 1,
// 2 and 4 workers, for serial MaxProfiles stops at many budgets, for
// every periodic checkpoint, and for scans resumed across pruned and
// exhaustive checkpoints in both directions.
func TestRefuteDifferential(t *testing.T) {
	specs, spaces := refuteGames(t, 61, 30, 1500)
	var shrunk, noNE int
	for i, spec := range specs {
		on, off := refutePair(spaces[i])
		for _, agg := range []Aggregation{SumDistances, MaxDistance} {
			name := fmt.Sprintf("game %d agg %d (%d profiles)", i, agg, on.Size())
			want := scanAt(t, spec, agg, off, 1, EnumConfig{})
			wantJSON := mustJSON(t, want)
			if len(want.Equilibria) == 0 {
				noNE++
			}
			var rf refuter
			if rf.run(spec, agg, on, NewEvalScratch()) {
				shrunk++
			}
			for _, w := range []int{1, 2, 4} {
				if got := mustJSON(t, scanAt(t, spec, agg, on, w, EnumConfig{})); got != wantJSON {
					t.Fatalf("%s: complete scan at %d workers diverged\n got: %s\nwant: %s", name, w, got, wantJSON)
				}
				for _, cap := range []int{1, 2} {
					if cap > len(want.Equilibria) {
						break
					}
					cfg := EnumConfig{MaxEquilibria: cap}
					got, exp := scanAt(t, spec, agg, on, w, cfg), scanAt(t, spec, agg, off, w, cfg)
					if g, e := mustJSON(t, got), mustJSON(t, exp); g != e {
						t.Fatalf("%s: MaxEquilibria %d at %d workers diverged\n got: %s\nwant: %s", name, cap, w, g, e)
					}
				}
			}

			// Budgets step through the space and also land on checkpoint
			// boundaries, where a budget stop must win over the checkpoint.
			size := want.Checked
			every := size/7 + 1
			budgets := []uint64{every, 2 * every, 3 * every}
			for b := uint64(1); b <= size; b += size/23 + 1 {
				budgets = append(budgets, b)
			}
			for _, b := range budgets {
				cfg := EnumConfig{MaxProfiles: b}
				got, gotSnaps := checkpointed(t, spec, agg, on, every, cfg)
				exp, expSnaps := checkpointed(t, spec, agg, off, every, cfg)
				if g, e := mustJSON(t, got)+gotSnaps, mustJSON(t, exp)+expSnaps; g != e {
					t.Fatalf("%s: MaxProfiles %d with checkpoints every %d diverged\n got: %s\nwant: %s", name, b, every, g, e)
				}
				// Partitions share the budget, so where a parallel scan stops
				// is racy, but its grants sum to the budget exactly.
				if par := scanAt(t, spec, agg, on, 2, cfg); par.Checked != exp.Checked || par.Status != exp.Status {
					t.Fatalf("%s: MaxProfiles %d at 2 workers: checked %d (%v), want %d (%v)", name, b, par.Checked, par.Status, exp.Checked, exp.Status)
				}
				if got.Resume == nil {
					continue
				}
				// Each side's stop resumes on the other side to the same
				// bytes as the uninterrupted scan.
				for leg, ss := range []*SearchSpace{off, on} {
					from := []*NEResult{got, exp}[leg]
					res := scanAt(t, spec, agg, ss, 1, EnumConfig{Resume: from.Resume})
					if g := mustJSON(t, res); g != wantJSON {
						t.Fatalf("%s: resume across sides from budget %d diverged\n got: %s\nwant: %s", name, b, g, wantJSON)
					}
				}
			}

			for _, every := range []uint64{3, every} {
				_, g := checkpointed(t, spec, agg, on, every, EnumConfig{})
				if _, e := checkpointed(t, spec, agg, off, every, EnumConfig{}); g != e {
					t.Fatalf("%s: periodic checkpoints every %d diverged\n got: %s\nwant: %s", name, every, g, e)
				}
			}
		}
	}
	if shrunk == 0 || noNE == 0 {
		t.Fatalf("games exercise too little: %d spaces shrank, %d had no equilibrium", shrunk, noNE)
	}
}

// checkpointed runs a serial scan under cfg, checkpointing every `every`
// profiles, and returns its result and every snapshot it reported, as
// JSON. The snapshots must fall at each multiple of every strictly before
// the state where the scan stopped: a budget that runs out on a boundary
// stops the scan there without a checkpoint.
func checkpointed(t *testing.T, spec Spec, agg Aggregation, ss *SearchSpace, every uint64, cfg EnumConfig) (*NEResult, string) {
	t.Helper()
	var snaps []*EnumCheckpoint
	cfg.CheckpointEvery = every
	cfg.OnCheckpoint = func(cp *EnumCheckpoint) { snaps = append(snaps, cp) }
	res := scanAt(t, spec, agg, ss, 1, cfg)
	if want := (res.Checked - 1) / every; uint64(len(snaps)) != want {
		t.Fatalf("scan stopped at %d with %d checkpoints every %d, want %d", res.Checked, len(snaps), every, want)
	}
	for i, cp := range snaps {
		if cp.Checked != uint64(i+1)*every {
			t.Fatalf("checkpoint %d at %d profiles, want %d", i, cp.Checked, uint64(i+1)*every)
		}
	}
	return res, mustJSON(t, snaps)
}

// TestRefuteComposesWithQuotient runs the pruned scan under a symmetry
// quotient: refuted states are never equilibria, so orbit emission and
// canonicity must come out unchanged, complete or capped.
func TestRefuteComposesWithQuotient(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 4; trial++ {
		var (
			spec Spec
			gens [][]int
		)
		if trial%2 == 0 {
			spec = MustUniform(4, 1+trial/2)
			gens = translationPerms(4)
		} else {
			spec, _ = randomSymmetricDense(rng, 2)
			var err error
			if gens, err = SpecAutomorphisms(spec, 0); err != nil {
				t.Fatal(err)
			}
		}
		pinned, err := PinnedSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		on, off := refutePair(pinned)
		q, err := NewQuotient(spec, off, gens)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Aggregation{SumDistances, MaxDistance} {
			want := mustJSON(t, scanAt(t, spec, agg, off, 1, EnumConfig{}))
			for _, w := range []int{1, 2} {
				if got := mustJSON(t, scanAt(t, spec, agg, on, w, EnumConfig{Quotient: q})); got != want {
					t.Fatalf("trial %d agg %d workers %d: quotiented pruned scan diverged\n got: %s\nwant: %s", trial, agg, w, got, want)
				}
				cfg := EnumConfig{Quotient: q, MaxEquilibria: 1}
				got, exp := scanAt(t, spec, agg, on, w, cfg), scanAt(t, spec, agg, off, w, cfg)
				if g, e := mustJSON(t, got), mustJSON(t, exp); g != e {
					t.Fatalf("trial %d agg %d workers %d: capped quotiented scan diverged\n got: %s\nwant: %s", trial, agg, w, g, e)
				}
			}
		}
	}
}

// TestRefuterSound checks the pass against brute force: every equilibrium
// the reference scan finds, in a space and in each of its pivot
// partitions, plays only strategies the pass left live there.
func TestRefuterSound(t *testing.T) {
	specs, spaces := refuteGames(t, 71, 10, 800)
	es := NewEvalScratch()
	var rf refuter
	refuted := 0
	for i, spec := range specs {
		for _, agg := range []Aggregation{SumDistances, MaxDistance} {
			eqs := referenceEnumerate(t, spec, agg, spaces[i]).Equilibria
			check := func(ss *SearchSpace, where string) {
				if !rf.run(spec, agg, ss, es) {
					return
				}
				if rf.dead {
					refuted++
				}
				for u, set := range ss.PerNode {
					for k, s := range set {
						if rf.live[rf.off[u]+k] {
							continue
						}
						refuted++
						for _, eq := range eqs {
							if eq[u].Equal(s) && inSpace(ss, eq) {
								t.Fatalf("game %d agg %d %s: node %d strategy %v refuted, but equilibrium %v plays it", i, agg, where, u, s, eq)
							}
						}
					}
				}
				if rf.dead {
					for _, eq := range eqs {
						if inSpace(ss, eq) {
							t.Fatalf("game %d agg %d %s: space refuted whole, but holds equilibrium %v", i, agg, where, eq)
						}
					}
				}
			}
			check(spaces[i], "space")
			pivot := spaces[i].Pivot()
			for k, s := range spaces[i].PerNode[pivot] {
				sub := &SearchSpace{PerNode: append([][]Strategy(nil), spaces[i].PerNode...)}
				sub.PerNode[pivot] = []Strategy{s}
				check(sub, fmt.Sprintf("partition %d", k))
			}
		}
	}
	if refuted == 0 {
		t.Fatal("the pass refuted nothing on any game")
	}
}

// inSpace reports whether every strategy of p lies in ss.
func inSpace(ss *SearchSpace, p Profile) bool {
	for u, s := range p {
		found := false
		for _, c := range ss.PerNode[u] {
			if c.Equal(s) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
