package dynamics

import (
	"context"
	"fmt"

	"bbc/internal/core"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// SimultaneousResult reports a synchronous best-response run, where every
// unstable player rewires at once each round. The paper assumes one mover
// per step "for convenience"; the synchronous variant models uncoordinated
// systems (every peer re-optimizes on the same timer) and oscillates in
// situations the sequential walk would resolve.
type SimultaneousResult struct {
	// Final is the profile when the run ended.
	Final core.Profile
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Converged is true when a round changed nothing (a pure Nash
	// equilibrium, since every player best-responds).
	Converged bool
	// Loop is non-nil when a previously seen profile recurred: the
	// synchronous dynamics entered a deterministic cycle of the given
	// length (in rounds).
	Loop *SimultaneousLoop
	// Status classifies how the run ended: complete (converged or looped),
	// budget (MaxRounds exhausted), or cancelled/deadline (SimOptions.Ctx
	// fired mid-run, partial result returned with a nil error).
	Status runctl.Status
}

// SimultaneousLoop certifies a cycle of the synchronous dynamics.
type SimultaneousLoop struct {
	// Length is the cycle length in rounds.
	Length int
	// Start is the first profile on the cycle.
	Start core.Profile
}

// SimOptions tunes RunSimultaneousOpts.
type SimOptions struct {
	// Ctx, when non-nil, is checked before every round; a cancel or
	// deadline ends the run with a partial result.
	Ctx context.Context
	// MaxRounds bounds the run; 0 means 1000.
	MaxRounds int
	// Journal, when non-nil, receives one "round" record per synchronous
	// round (data: round, movers).
	Journal *obs.Journal
}

// RunSimultaneous executes synchronous best-response dynamics: each round,
// every player computes its exact best response against the *current*
// profile, and all strictly-improving players switch simultaneously. The
// dynamics are deterministic, so the run either reaches an equilibrium or
// enters a cycle within the number of distinct profiles; maxRounds bounds
// the run (0 means 1000).
func RunSimultaneous(spec core.Spec, start core.Profile, agg core.Aggregation, maxRounds int) (*SimultaneousResult, error) {
	return RunSimultaneousOpts(spec, start, agg, SimOptions{MaxRounds: maxRounds})
}

// RunSimultaneousOpts is RunSimultaneous with observability hooks.
func RunSimultaneousOpts(spec core.Spec, start core.Profile, agg core.Aggregation, opts SimOptions) (*SimultaneousResult, error) {
	if err := start.Validate(spec); err != nil {
		return nil, fmt.Errorf("dynamics: invalid start profile: %w", err)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1000
	}
	n := spec.N()
	p := start.Clone()
	seen := map[string]int{p.Key(): 0}
	res := &SimultaneousResult{}
	es := core.NewEvalScratch()
	// Rounds count into the scratch's block: published after every round
	// and on every return.
	defer es.FlushCounts()
	tally := es.Tally()
	for round := 1; round <= maxRounds; round++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				res.Status = runctl.StatusFromError(err)
				res.Final = p
				return res, nil
			}
		}
		tally.Inc(obs.MSimRounds)
		spRound := obs.Trace().StartSpan("dyn.round")
		g := p.Realize(spec)
		// Each round realizes a fresh graph, so Bind invalidates the oracle
		// cache while the scratch's buffers carry over between rounds.
		es.Bind(spec, g, agg)
		next := p.Clone()
		moved := false
		movers := 0
		for u := 0; u < n; u++ {
			o := es.OracleFor(u)
			cur := o.Evaluate(p[u])
			if cur == o.LowerBound() {
				continue
			}
			best, bestCost, err := o.BestExact(0)
			if err != nil {
				return nil, err
			}
			if bestCost < cur {
				next[u] = best
				moved = true
				movers++
			}
		}
		res.Rounds = round
		es.FlushCounts()
		spRound.EndInt("movers", int64(movers))
		opts.Journal.Event("round", map[string]any{"round": round, "movers": movers})
		if !moved {
			res.Converged = true
			res.Final = p
			return res, nil
		}
		p = next
		key := p.Key()
		if first, ok := seen[key]; ok {
			res.Loop = &SimultaneousLoop{Length: round - first, Start: p.Clone()}
			res.Final = p
			return res, nil
		}
		seen[key] = round
	}
	res.Final = p
	res.Status = runctl.StatusBudget // MaxRounds ran out without a verdict
	return res, nil
}
