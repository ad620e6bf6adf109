package core

import (
	"fmt"
)

// OptimumResult is the outcome of an exact social-optimum search.
type OptimumResult struct {
	// Profile achieves the minimum social cost.
	Profile Profile
	// Cost is the minimum social cost.
	Cost int64
	// Scanned counts the profiles evaluated.
	Scanned uint64
}

// SocialOptimum computes the exact minimum social cost over all profiles
// whose strategies are budget-maximal (lossless for non-negative weights:
// adding a link never increases any node's cost, so some maximal profile
// attains the optimum). The search space is the product of per-node
// maximal strategy sets and is scanned exhaustively, so this is only
// feasible for small games; maxProfiles caps the scan (0 means 50
// million) and an *EnumerationLimitError is returned when exceeded.
//
// The scan maintains the realized graph incrementally, rewiring only the
// nodes whose odometer digit changed, and evaluates the social cost of
// every profile in full: it does not prune.
func SocialOptimum(spec Spec, agg Aggregation, maxProfiles uint64) (*OptimumResult, error) {
	if maxProfiles == 0 {
		maxProfiles = 50_000_000
	}
	n := spec.N()
	perNode := make([][]Strategy, n)
	space := uint64(1)
	for u := 0; u < n; u++ {
		set, err := AllStrategies(spec, u, true, 0)
		if err != nil {
			return nil, err
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("core: node %d has no feasible strategy", u)
		}
		perNode[u] = set
		if space > maxProfiles/uint64(len(set)) {
			return nil, &EnumerationLimitError{Node: u, Limit: int(maxProfiles)}
		}
		space *= uint64(len(set))
	}

	idx := make([]int, n)
	p := make(Profile, n)
	for u := range p {
		p[u] = perNode[u][0]
	}
	g := p.Realize(spec)
	best := &OptimumResult{Cost: int64(1)<<62 - 1}
	for {
		best.Scanned++
		cost := SocialCostOnGraph(spec, g, agg)
		if cost < best.Cost {
			best.Cost = cost
			best.Profile = p.Clone()
		}
		u := n - 1
		for u >= 0 {
			idx[u]++
			if idx[u] < len(perNode[u]) {
				p[u] = perNode[u][idx[u]]
				setStrategyArcs(spec, g, u, p[u])
				break
			}
			idx[u] = 0
			p[u] = perNode[u][0]
			setStrategyArcs(spec, g, u, p[u])
			u--
		}
		if u < 0 {
			return best, nil
		}
	}
}

// PriceOfAnarchyExact returns worst-equilibrium cost / optimum cost for a
// small game, scanning both exhaustively. The search space must satisfy
// the same caps as SocialOptimum and EnumeratePureNE. It returns an error
// when the game has no pure equilibrium.
func PriceOfAnarchyExact(spec Spec, agg Aggregation, maxProfiles uint64) (poa, pos float64, err error) {
	opt, err := SocialOptimum(spec, agg, maxProfiles)
	if err != nil {
		return 0, 0, err
	}
	ss, err := FullSpace(spec, 0)
	if err != nil {
		return 0, 0, err
	}
	if size := ss.Size(); maxProfiles > 0 && size > maxProfiles {
		return 0, 0, &EnumerationLimitError{Node: -1, Limit: int(maxProfiles)}
	}
	res, err := EnumeratePureNE(spec, agg, ss, 0)
	if err != nil {
		return 0, 0, err
	}
	if len(res.Equilibria) == 0 {
		return 0, 0, fmt.Errorf("core: game has no pure Nash equilibrium")
	}
	worst, bestEq := int64(0), int64(1)<<62-1
	for _, p := range res.Equilibria {
		c := SocialCost(spec, p, agg)
		if c > worst {
			worst = c
		}
		if c < bestEq {
			bestEq = c
		}
	}
	if opt.Cost == 0 {
		return 0, 0, fmt.Errorf("core: degenerate zero-cost optimum")
	}
	return float64(worst) / float64(opt.Cost), float64(bestEq) / float64(opt.Cost), nil
}
