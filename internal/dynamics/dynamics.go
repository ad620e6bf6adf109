// Package dynamics implements best-response walks on BBC game
// configuration spaces (Section 4.3 of the paper): schedulers (round-robin,
// max-cost-first, random), convergence tracking to strong connectivity
// (Theorem 6), pure-equilibrium convergence, and loop detection — the
// witness that uniform BBC games are not ordinal potential games
// (Figure 4).
package dynamics

import (
	"context"
	"fmt"
	"sort"

	"bbc/internal/core"
	"bbc/internal/graph"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// Scheduler picks which node attempts a best-response step next.
type Scheduler interface {
	// Next returns the node to move at the given step, possibly inspecting
	// the current profile and realized graph.
	Next(step int, spec core.Spec, p core.Profile, g *graph.Digraph) int
	// Phase returns a small integer identifying the scheduler's internal
	// position at the given step; two visits to the same (profile, phase)
	// pair guarantee the walk has entered a cycle.
	Phase(step int) int
}

// RoundRobin cycles through a fixed node order, one node per step.
type RoundRobin struct {
	Order []int
}

// NewRoundRobin returns a round-robin scheduler over 0..n-1.
func NewRoundRobin(n int) *RoundRobin {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return &RoundRobin{Order: order}
}

// Next returns the node whose turn it is.
func (r *RoundRobin) Next(step int, _ core.Spec, _ core.Profile, _ *graph.Digraph) int {
	return r.Order[step%len(r.Order)]
}

// Phase returns the position within the round.
func (r *RoundRobin) Phase(step int) int { return step % len(r.Order) }

// MaxCostFirst schedules the most expensive node that has a strictly
// improving deviation (ties broken toward the lowest id), the walk variant
// the paper reports experiments on. When every node is stable it returns
// the most expensive node, whose no-move steps let the walk detect
// convergence.
type MaxCostFirst struct {
	Agg core.Aggregation
	// BR configures the deviation check; the zero value means exact.
	BR core.Options
}

// Next returns the most expensive unstable node, or the most expensive
// node overall when the profile is stable.
func (m *MaxCostFirst) Next(_ int, spec core.Spec, p core.Profile, g *graph.Digraph) int {
	type nc struct {
		node int
		cost int64
	}
	order := make([]nc, spec.N())
	for u := 0; u < spec.N(); u++ {
		order[u] = nc{node: u, cost: core.NodeCost(spec, g, u, m.Agg)}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].cost > order[j].cost })
	for _, c := range order {
		dev, err := core.NodeDeviation(spec, g, p, c.node, m.Agg, m.BR)
		if err != nil {
			// Enumeration limits surface on the actual move attempt in Run;
			// fall back to the plain max-cost node here.
			break
		}
		if dev != nil {
			return c.node
		}
	}
	return order[0].node
}

// Phase is constant: the scheduler is memoryless, so a repeated profile
// alone implies a cycle.
func (m *MaxCostFirst) Phase(int) int { return 0 }

// Rand abstracts the randomness source for RandomScheduler, satisfied by
// *math/rand.Rand.
type Rand interface {
	Intn(n int) int
}

// RandomScheduler picks a uniformly random node each step.
type RandomScheduler struct {
	Rng Rand
}

// Next returns a random node.
func (r *RandomScheduler) Next(_ int, spec core.Spec, _ core.Profile, _ *graph.Digraph) int {
	return r.Rng.Intn(spec.N())
}

// Phase is constant; loop detection is not meaningful for random walks and
// should be disabled by callers.
func (r *RandomScheduler) Phase(int) int { return 0 }

// StepRecord describes one attempted best-response step.
type StepRecord struct {
	Step       int
	Node       int
	Moved      bool
	From, To   core.Strategy
	CostBefore int64
	CostAfter  int64
}

// LoopInfo certifies a best-response cycle: starting from States[0] and
// applying Moves in order returns to States[0] at the same scheduler phase,
// with every move a strict best-response improvement.
type LoopInfo struct {
	// Length is the number of steps in the cycle (including no-move steps).
	Length int
	// Moves lists only the steps inside the cycle where a node rewired.
	Moves []StepRecord
	// Start is the profile at which the cycle begins.
	Start core.Profile
}

// Options controls a walk run.
type Options struct {
	// Ctx, when non-nil, is checked before every step: a cancel or
	// deadline stops the walk with a partial Result whose Status explains
	// why. Nil means the walk cannot be interrupted.
	Ctx context.Context
	// MaxSteps bounds the walk; the zero value means 10·n².
	MaxSteps int
	// BR configures the best-response oracle (default exact).
	BR core.Options
	// Trace records every step (memory proportional to MaxSteps).
	Trace bool
	// DetectLoops tracks visited (profile, phase) states and stops with a
	// certified LoopInfo when one repeats after at least one move.
	DetectLoops bool
	// StopAtStrongConnectivity ends the walk as soon as the realized graph
	// is strongly connected (used by the Theorem 6 experiments).
	StopAtStrongConnectivity bool
	// RecordSocialCost captures the social cost after every step into
	// Result.SocialCostSeries (index 0 is the starting profile's cost),
	// for convergence plots.
	RecordSocialCost bool
	// Journal, when non-nil, receives one "move" record per step that
	// rewired the graph (type move; data: step, node, from, to,
	// cost_before, cost_after). Callers emit their own summary record.
	Journal *obs.Journal

	// scratch, when non-nil, is the walk's evaluation scratch. Run creates
	// one per walk by default; RunEnsemble installs one per worker
	// goroutine so consecutive trials reuse traversal buffers and oracle
	// arenas.
	scratch *core.EvalScratch
}

func (o Options) maxSteps(n int) int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 10 * n * n
}

// Result reports the walk outcome.
type Result struct {
	// Final is the profile when the walk ended.
	Final core.Profile
	// Steps is the number of best-response steps attempted.
	Steps int
	// Moves is the number of steps that changed the graph.
	Moves int
	// Converged is true when the walk reached a pure Nash equilibrium
	// (n consecutive steps with no move under a scheduler that eventually
	// schedules every node; for round-robin this is exactly a quiet round).
	Converged bool
	// ConnectivityStep is the first step count at which the realized graph
	// was strongly connected, or -1 if it never was.
	ConnectivityStep int
	// Loop is non-nil when DetectLoops found a certified cycle.
	Loop *LoopInfo
	// Trace holds per-step records when Options.Trace was set.
	Trace []StepRecord
	// SocialCostSeries holds the social cost before any step and after
	// every step, when Options.RecordSocialCost was set.
	SocialCostSeries []int64
	// Status classifies how the walk ended: complete (converged, looped,
	// or reached the requested connectivity stop), budget (MaxSteps
	// exhausted), or cancelled/deadline (Options.Ctx fired). Partial
	// results are returned with a nil error in every case.
	Status runctl.Status
}

// Run executes a best-response walk from the given starting profile. Each
// step, the scheduled node computes its best response and rewires if that
// strictly lowers its cost. The starting profile must be feasible.
func Run(spec core.Spec, start core.Profile, sched Scheduler, agg core.Aggregation, opts Options) (*Result, error) {
	sp := obs.Trace().StartSpan("dyn.walk")
	res, err := run(spec, start, sched, agg, opts)
	if res != nil {
		sp.EndInt("steps", int64(res.Steps))
	} else {
		sp.End()
	}
	return res, err
}

func run(spec core.Spec, start core.Profile, sched Scheduler, agg core.Aggregation, opts Options) (*Result, error) {
	if err := start.Validate(spec); err != nil {
		return nil, fmt.Errorf("dynamics: invalid start profile: %w", err)
	}
	n := spec.N()
	p := start.Clone()
	g := p.Realize(spec)
	res := &Result{ConnectivityStep: -1}
	es := opts.scratch
	if es == nil {
		es = core.NewEvalScratch()
	}
	es.Bind(spec, g, agg)
	// The walk counts into the scratch's block; every return publishes it.
	defer es.FlushCounts()
	tally := es.Tally()

	type visit struct {
		step  int
		moves int
	}
	var seen map[string]visit
	var history []StepRecord // kept only when loop detection or tracing is on
	if opts.DetectLoops {
		seen = make(map[string]visit)
	}
	keepHistory := opts.DetectLoops || opts.Trace

	if opts.RecordSocialCost {
		res.SocialCostSeries = append(res.SocialCostSeries, core.SocialCostOnGraph(spec, g, agg))
	}
	if g.StronglyConnected() {
		res.ConnectivityStep = 0
		if opts.StopAtStrongConnectivity {
			res.Final = p
			return res, nil
		}
	}

	quiet := 0
	maxSteps := opts.maxSteps(n)
	for step := 0; step < maxSteps; step++ {
		if step%runctl.CheckEvery == 0 {
			es.FlushCounts()
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				res.Status = runctl.StatusFromError(err)
				break
			}
		}
		if opts.DetectLoops {
			key := fmt.Sprintf("%d|%s", sched.Phase(step), p.Key())
			if v, ok := seen[key]; ok && res.Moves > v.moves {
				res.Loop = buildLoop(history, v.step, step, p)
				break
			} else if !ok {
				seen[key] = visit{step: step, moves: res.Moves}
			}
		}
		u := sched.Next(step, spec, p, g)
		// The scratch serves u's oracle from cache when only u itself has
		// moved since it was built — in particular across the quiet no-move
		// steps that precede convergence detection.
		o := es.OracleFor(u)
		cur := o.Evaluate(p[u])
		best, bestCost := p[u], cur
		if cur > o.LowerBound() {
			var err error
			best, bestCost, err = bestWith(o, opts.BR)
			if err != nil {
				return nil, err
			}
		}
		rec := StepRecord{Step: step, Node: u, From: p[u], CostBefore: cur, CostAfter: cur}
		if bestCost < cur {
			rec.Moved = true
			rec.To = best
			rec.CostAfter = bestCost
			p[u] = best
			g.SetArcs(u, best)
			if !spec.UnitLengths() {
				relink(spec, g, u, best)
			}
			es.NoteRewire(u)
			res.Moves++
			tally.Inc(obs.MWalkMoves)
			if opts.Journal != nil {
				// A move record carries a counter snapshot: publish the
				// walk's counts first so the record is exact.
				es.FlushCounts()
			}
			opts.Journal.Event("move", map[string]any{
				"step":        step,
				"node":        u,
				"from":        strategyList(rec.From),
				"to":          strategyList(rec.To),
				"cost_before": rec.CostBefore,
				"cost_after":  rec.CostAfter,
			})
			quiet = 0
		} else {
			rec.To = p[u]
			quiet++
		}
		res.Steps++
		tally.Inc(obs.MWalkSteps)
		if keepHistory {
			history = append(history, rec)
		}
		if opts.RecordSocialCost {
			res.SocialCostSeries = append(res.SocialCostSeries, core.SocialCostOnGraph(spec, g, agg))
		}
		if rec.Moved && res.ConnectivityStep < 0 && g.StronglyConnected() {
			res.ConnectivityStep = res.Steps
			if opts.StopAtStrongConnectivity {
				break
			}
		}
		if quiet >= n {
			res.Converged = true
			break
		}
	}
	if res.Status.Complete() && !res.Converged && res.Loop == nil &&
		!(opts.StopAtStrongConnectivity && res.ConnectivityStep >= 0) {
		// The step budget ran out before any terminal condition.
		res.Status = runctl.StatusBudget
	}
	res.Final = p
	if opts.Trace {
		res.Trace = history
	}
	return res, nil
}

// strategyList normalizes a strategy for JSON journaling: the empty
// strategy serializes as [], never null.
func strategyList(s core.Strategy) []int {
	if s == nil {
		return []int{}
	}
	return s
}

// bestWith dispatches on the configured best-response method.
func bestWith(o *core.Oracle, opts core.Options) (core.Strategy, int64, error) {
	switch opts.Method {
	case 0, core.Exact:
		return o.BestExact(opts.EnumLimit)
	case core.Greedy:
		s, c := o.BestGreedy()
		return s, c, nil
	case core.GreedySwap:
		s, _ := o.BestGreedy()
		rounds := opts.SwapRounds
		if rounds == 0 {
			rounds = 50
		}
		s, c := o.ImproveBySwaps(s, rounds)
		return s, c, nil
	default:
		return nil, 0, fmt.Errorf("dynamics: unknown best-response method %d", opts.Method)
	}
}

// relink rewrites u's arcs with spec lengths (SetArcs uses unit lengths).
func relink(spec core.Spec, g *graph.Digraph, u int, s core.Strategy) {
	g.RemoveArcs(u)
	for _, v := range s {
		g.AddArc(u, v, spec.Length(u, v))
	}
}

// buildLoop extracts the certified cycle between two visits to the same
// (profile, phase) state.
func buildLoop(history []StepRecord, fromStep, toStep int, state core.Profile) *LoopInfo {
	li := &LoopInfo{Length: toStep - fromStep, Start: state.Clone()}
	for _, rec := range history[fromStep:toStep] {
		if rec.Moved {
			li.Moves = append(li.Moves, rec)
		}
	}
	return li
}
