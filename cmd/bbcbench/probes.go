package main

import (
	"math/rand"
	"time"

	"bbc/internal/construct"
	"bbc/internal/core"
	"bbc/internal/dynamics"
	"bbc/internal/graph"
	"bbc/internal/obs"
)

// probes time public calls on fixed inputs, outside the timed window, so
// a layer's speed can be read apart from the workload around it.
func probes(e *env) map[string]float64 {
	out := map[string]float64{}
	budget := 200 * time.Millisecond
	if e.smoke {
		budget = 10 * time.Millisecond
	}
	gadget := construct.MatchingPennies(construct.DefaultGadgetWeights())
	profile := construct.IntendedGadgetProfile(true, true)
	g := profile.Realize(gadget)

	srcs := make([]int, graph.BatchWidth)
	for i := range srcs {
		srcs[i] = i % gadget.N()
	}
	dist := make([]int64, len(srcs)*gadget.N())
	var bs graph.BitScratch
	out["graph.bfs_batch_ns"] = nsPerCall(budget, func(int) {
		g.BFSBatchInto(dist, srcs, graph.Options{Skip: -1}, &bs)
	})

	// BenchmarkOracleBuild's inputs and conditions (no registry installed),
	// so these read directly against the BENCH_*.json records.
	prev := obs.SetGlobal(nil)
	for _, n := range []int{32, 64, 128} {
		spec := core.MustUniform(n, 2)
		rg := dynamics.RandomStart(rand.New(rand.NewSource(1)), n, 2).Realize(spec)
		out[oracleProbeName(n)] = nsPerCall(budget, func(i int) {
			core.NewOracle(spec, rg, i%n, core.SumDistances)
		})
	}
	obs.SetGlobal(prev)

	out["core.oracle_build_ns.gadget"] = nsPerCall(budget, func(i int) {
		core.NewOracle(gadget, g, i%gadget.N(), core.SumDistances)
	})
	oracles := make([]*core.Oracle, gadget.N())
	costs := make([]int64, gadget.N())
	for u := range oracles {
		oracles[u] = core.NewOracle(gadget, g, u, core.SumDistances)
		costs[u] = oracles[u].Evaluate(profile[u])
	}
	out["core.has_improvement_ns.gadget"] = nsPerCall(budget, func(i int) {
		u := i % len(oracles)
		oracles[u].HasImprovement(costs[u])
	})

	// Whole scans: serial with the registry (as every CLI runs), serial
	// without it, and two workers with it.
	spec := scanGame(e.smoke, 1)
	serial := timeScan(spec, 1)
	prev = obs.SetGlobal(nil)
	bare := timeScan(spec, 1)
	obs.SetGlobal(prev)
	parallel := timeScan(spec, 2)
	out["core.serial_scan_s"] = serial
	out["core.parallel_speedup"] = ratio(serial, parallel)
	out["obs.counter_overhead_share"] = 1 - ratio(bare, serial)
	return out
}

func oracleProbeName(n int) string {
	switch n {
	case 32:
		return "core.oracle_build_ns.n032"
	case 64:
		return "core.oracle_build_ns.n064"
	}
	return "core.oracle_build_ns.n128"
}

// nsPerCall runs f in rounds until budget has elapsed and returns the
// median round's nanoseconds per call.
func nsPerCall(budget time.Duration, f func(i int)) float64 {
	const rounds = 5
	per := make([]float64, 0, rounds)
	calls := 1
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f(i)
		}
		el := time.Since(t0)
		per = append(per, float64(el.Nanoseconds())/float64(calls))
		// Size the next round to the budget's share of one round.
		if want := budget / rounds; el < want {
			if el <= 0 {
				calls *= 100
			} else {
				calls = max(calls, int(float64(calls)*float64(want)/float64(el)))
			}
		}
	}
	return median(per[1:]) // the first round only sized the others
}

// timeScan returns one pinned scan's wall seconds.
func timeScan(spec core.Spec, workers int) float64 {
	t0 := time.Now()
	if _, err := scanPinned(spec, workers); err != nil {
		return 0
	}
	return time.Since(t0).Seconds()
}
