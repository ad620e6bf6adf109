package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"bbc/internal/graph"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// AllStrategies enumerates feasible strategies for node u. When maximalOnly
// is set, only budget-maximal sets are returned (no affordable link can be
// added); otherwise every feasible set including the empty one is returned.
// limit caps the result length (0 = unlimited); exceeding it returns an
// *EnumerationLimitError.
func AllStrategies(spec Spec, u int, maximalOnly bool, limit int) ([]Strategy, error) {
	n := spec.N()
	cands := make([]int, 0, n-1)
	costs := make([]int64, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			cands = append(cands, v)
			costs = append(costs, spec.LinkCost(u, v))
		}
	}
	minRemain := make([]int64, len(cands)+1)
	minRemain[len(cands)] = int64(1)<<62 - 1
	for i := len(cands) - 1; i >= 0; i-- {
		minRemain[i] = costs[i]
		if minRemain[i+1] < minRemain[i] {
			minRemain[i] = minRemain[i+1]
		}
	}
	var (
		out      []Strategy
		chosen   []int
		inSet    = make([]bool, len(cands))
		limitHit bool
	)
	// isMaximal reports whether no unchosen candidate fits in rem.
	isMaximal := func(rem int64) bool {
		for i := range cands {
			if !inSet[i] && costs[i] <= rem {
				return false
			}
		}
		return true
	}
	emit := func(rem int64) {
		if maximalOnly && !isMaximal(rem) {
			return
		}
		if limit > 0 && len(out) >= limit {
			limitHit = true
			return
		}
		s := make(Strategy, len(chosen))
		copy(s, chosen)
		out = append(out, s)
	}
	var dfs func(i int, rem int64)
	dfs = func(i int, rem int64) {
		if limitHit {
			return
		}
		if i == len(cands) {
			emit(rem)
			return
		}
		if maximalOnly && minRemain[i] > rem {
			emit(rem)
			return
		}
		if costs[i] <= rem {
			chosen = append(chosen, cands[i])
			inSet[i] = true
			dfs(i+1, rem-costs[i])
			inSet[i] = false
			chosen = chosen[:len(chosen)-1]
		}
		if limitHit {
			return
		}
		if !maximalOnly {
			dfs(i+1, rem)
			return
		}
		if costs[i] > rem || minRemain[i+1] <= rem {
			dfs(i+1, rem)
		}
	}
	dfs(0, spec.Budget(u))
	if limitHit {
		return nil, &EnumerationLimitError{Node: u, Limit: limit}
	}
	return out, nil
}

// SearchSpace restricts the per-node strategy sets explored by
// EnumeratePureNE. A nil entry means "not restricted" and is invalid; use
// FullSpace or PinnedSpace to build one.
type SearchSpace struct {
	PerNode [][]Strategy
	// refute marks a space whose scans run the static dominance pass
	// (refuter) first and skip the profiles it refutes. PinnedSpace sets
	// it; parallel partitions and in-place shard slices keep it.
	refute bool
}

// Size returns the number of profiles in the product space, saturating at
// 2^63-1.
func (ss *SearchSpace) Size() uint64 {
	size := uint64(1)
	const cap64 = uint64(1) << 63
	for _, set := range ss.PerNode {
		if uint64(len(set)) == 0 {
			return 0
		}
		if size > cap64/uint64(len(set)) {
			return cap64
		}
		size *= uint64(len(set))
	}
	return size
}

// Pivot returns the index of the first node with more than one strategy
// — the axis the parallel enumerator (and the distributed fleet) splits
// the odometer space along — or -1 when every set is a singleton and the
// space holds exactly one profile. Splitting on the pivot keeps the
// serial odometer order: partition i in full is scanned before any
// profile of partition i+1, so concatenating partition (or shard)
// results in index order reproduces the unsplit scan byte for byte.
func (ss *SearchSpace) Pivot() int {
	for u, set := range ss.PerNode {
		if len(set) > 1 {
			return u
		}
	}
	return -1
}

// FullSpace builds the unrestricted search space: every feasible strategy
// for every node (including non-maximal ones, since ties can make
// non-maximal strategies equilibrium components).
func FullSpace(spec Spec, limitPerNode int) (*SearchSpace, error) {
	ss := &SearchSpace{PerNode: make([][]Strategy, spec.N())}
	for u := 0; u < spec.N(); u++ {
		set, err := AllStrategies(spec, u, false, limitPerNode)
		if err != nil {
			return nil, err
		}
		ss.PerNode[u] = set
	}
	return ss, nil
}

// PinnedSpace builds a search space with the singleton-support pin rule
// applied: in a unit-length game, a node u whose preference weights are
// positive for exactly one target v (and which can afford the link to v)
// achieves distance 1 to v only by buying that link, so every best response
// of u contains v; strategies omitting v can be soundly excluded. The rule
// preserves all pure Nash equilibria, so "no NE in the pinned space"
// implies "no NE at all".
//
// A scan of a pinned space (or of a partition or shard of one) first runs
// a static dominance pass over it with the scan's aggregation: each node
// strategy that some feasible deviation beats in every completion is
// refuted, until nothing changes (see DESIGN.md, "Refuting before
// scanning"). Profiles holding a refuted strategy are credited to
// NEResult.Checked without being evaluated, so results, checkpoints and
// budget stops match an exhaustive scan's. The pin rule is the pass's
// special case where the refuted strategies omit the sole target.
func PinnedSpace(spec Spec, limitPerNode int) (*SearchSpace, error) {
	if !spec.UnitLengths() {
		return nil, fmt.Errorf("core: PinnedSpace requires unit link lengths")
	}
	full, err := FullSpace(spec, limitPerNode)
	if err != nil {
		return nil, err
	}
	n := spec.N()
	for u := 0; u < n; u++ {
		support := -1
		multi := false
		for v := 0; v < n; v++ {
			if v != u && spec.Weight(u, v) > 0 {
				if support >= 0 {
					multi = true
					break
				}
				support = v
			}
		}
		if multi || support < 0 || spec.LinkCost(u, support) > spec.Budget(u) {
			continue
		}
		kept := full.PerNode[u][:0]
		for _, s := range full.PerNode[u] {
			if s.Contains(support) {
				kept = append(kept, s)
			}
		}
		full.PerNode[u] = kept
	}
	full.refute = true
	return full, nil
}

// NEResult reports the outcome of an exhaustive equilibrium search.
type NEResult struct {
	// Equilibria holds the pure Nash equilibria found (up to the caller's
	// cap), in odometer order.
	Equilibria []Profile
	// Checked is the number of profiles the scan accounted for, in
	// odometer order from the first: profiles whose stability was tested,
	// plus profiles credited without a test — statically refuted ones
	// (pinned spaces), orbit members a quotient skips, and profiles
	// carried by a resumed checkpoint. A complete scan's Checked is the
	// size of the space.
	Checked uint64
	// Complete is true when the whole space was scanned (the search did not
	// stop early at a cap, budget, deadline or cancellation).
	Complete bool
	// Status classifies how the scan ended: complete, cancelled (context
	// cancel / signal), deadline (-timeout), or budget (max-equilibria or
	// max-profiles cap). Every early stop returns the partial result with
	// a nil error; hard failures (bad input, worker panic) return errors.
	Status runctl.Status
	// Resume, non-nil on an early stop with work left, is the state from
	// which a new scan continues without re-checking any profile.
	Resume *EnumCheckpoint
}

// EnumCheckpoint is the serialized progress of an enumeration scan: the
// serial scan stores the odometer cursor of the next unchecked profile,
// the parallel scan stores per-partition completed results. Wrap it in a
// runctl.Checkpoint envelope (kind "enumeration") to persist it.
type EnumCheckpoint struct {
	// Cursor holds the per-node strategy indices of the next profile a
	// serial scan will check. Nil for parallel checkpoints.
	Cursor []int `json:"cursor,omitempty"`
	// Checked is the number of profiles already checked.
	Checked uint64 `json:"checked"`
	// Equilibria are the equilibria found so far, in odometer order
	// (serial scans only; parallel scans keep them per partition).
	Equilibria []Profile `json:"equilibria,omitempty"`
	// Parts records, for a parallel scan, each fully-scanned partition's
	// result; a nil entry is a partition still to do. Nil for serial
	// checkpoints.
	Parts []*PartProgress `json:"parts,omitempty"`
	// Pending holds, for a quotiented serial scan, the cursor-order index
	// vectors (strictly ascending, all at or past Cursor) of equilibria
	// already known by orbit expansion but not yet reached by the cursor.
	// Resuming replays them so the emitted equilibria match the
	// unquotiented scan byte for byte. Empty for plain scans — every orbit
	// is the trivial one — and for parallel checkpoints, which only record
	// completed partitions (a finished partition has drained its pending
	// list by construction).
	Pending [][]int `json:"pending,omitempty"`
}

// PartProgress is one completed partition of a parallel scan.
type PartProgress struct {
	Checked    uint64    `json:"checked"`
	Equilibria []Profile `json:"equilibria,omitempty"`
}

// validate sanity-checks the checkpoint's carried results against the
// spec. Envelope checksums catch accidental corruption, but a resumed
// payload still crosses a trust boundary (hand-edited files, schema
// drift); a checkpoint that passes here can be replayed into a result
// without further checking.
func (cp *EnumCheckpoint) validate(spec Spec) error {
	if err := validateCarried(spec, cp.Equilibria, cp.Checked); err != nil {
		return err
	}
	for i, part := range cp.Parts {
		if part == nil {
			continue
		}
		if err := validateCarried(spec, part.Equilibria, part.Checked); err != nil {
			return fmt.Errorf("core: checkpoint partition %d: %w", i, err)
		}
	}
	return nil
}

// validateCarried checks one carried result set: every equilibrium must
// be a feasible profile for the spec, and the checked count must cover
// at least the equilibria it claims to contain.
func validateCarried(spec Spec, eqs []Profile, checked uint64) error {
	if uint64(len(eqs)) > checked {
		return fmt.Errorf("core: checkpoint claims %d equilibria in only %d checked profiles", len(eqs), checked)
	}
	for i, eq := range eqs {
		if err := eq.Validate(spec); err != nil {
			return fmt.Errorf("core: checkpoint equilibrium %d is not a feasible profile: %w", i, err)
		}
	}
	return nil
}

// EnumFingerprint identifies a scan configuration for checkpoint
// validation: two runs share a fingerprint exactly when they scan the
// same spec, aggregation and per-node strategy sets, so a checkpoint is
// never resumed against a different search.
func EnumFingerprint(spec Spec, agg Aggregation, ss *SearchSpace) string {
	h := fnv.New64a()
	n := spec.N()
	fmt.Fprintf(h, "n=%d;agg=%d;M=%d;", n, agg, spec.Penalty())
	for u := 0; u < n; u++ {
		fmt.Fprintf(h, "b=%d;", spec.Budget(u))
		for v := 0; v < n; v++ {
			if v != u {
				fmt.Fprintf(h, "%d,%d,%d;", spec.Weight(u, v), spec.LinkCost(u, v), spec.Length(u, v))
			}
		}
	}
	for _, set := range ss.PerNode {
		fmt.Fprintf(h, "s=%d;", len(set))
	}
	return fmt.Sprintf("enum-%016x", h.Sum64())
}

// EnumConfig tunes a run-controlled enumeration scan. The zero value
// reproduces the classic uncontrolled scan.
type EnumConfig struct {
	// Ctx, when non-nil, is polled every CheckEvery profiles; a cancel or
	// deadline stops the scan with a partial result and resume state.
	Ctx context.Context
	// MaxEquilibria stops collecting after this many equilibria (0 = all).
	MaxEquilibria int
	// MaxProfiles bounds the cumulative number of profiles checked
	// (including profiles credited from a resumed checkpoint); hitting it
	// stops the scan with StatusBudget. 0 means unbounded.
	MaxProfiles uint64
	// CheckEvery is the context-poll period in profiles (0 = runctl.CheckEvery).
	CheckEvery uint64
	// CheckpointEvery is the period, in profiles checked this run, at
	// which OnCheckpoint fires (0 = every 1<<20 profiles).
	CheckpointEvery uint64
	// OnCheckpoint, when non-nil, receives periodic progress snapshots
	// (serial: every CheckpointEvery profiles; parallel: after each
	// completed partition). The callback must not mutate the snapshot.
	OnCheckpoint func(*EnumCheckpoint)
	// Resume continues a previous scan from its checkpoint instead of
	// starting at the first profile.
	Resume *EnumCheckpoint
	// Workers bounds parallel-scan concurrency (0 = NumCPU); ignored by
	// the serial scan.
	Workers int
	// Quotient, when non-nil, must be compiled (NewQuotient) against this
	// scan's spec and search space: the scan then evaluates stability only
	// at canonical orbit representatives, crediting the skipped states and
	// re-expanding stable representatives into their full orbits at the
	// moment the cursor reaches each member — so a completed quotiented
	// scan returns equilibria, counts and ordering byte-identical to the
	// plain scan at a fraction of the evaluations. Checkpoints from
	// quotiented and plain scans are mutually incompatible (resume both
	// sides of a split under the same Quotient; see QualifyFingerprint).
	Quotient *Quotient
	// DisableBatchBFS forces scalar per-source traversals during oracle
	// rebuilds instead of the bit-parallel batch path (see
	// EvalScratch.SetBatchBFS). Results are identical either way.
	DisableBatchBFS bool

	// qview is the partition-bound quotient view handed to a parallel
	// worker's sub-scan; it takes precedence over Quotient.
	qview *quotientView
	// budget, when non-nil, is the shared cross-partition profile budget
	// of a parallel scan and takes precedence over MaxProfiles.
	budget *profileBudget
	// scratch, when non-nil, is the caller-owned evaluation scratch the
	// scan binds to its realized graph; parallel workers pass one per
	// goroutine so oracle caches and traversal buffers persist across the
	// partitions a worker drains.
	scratch *EvalScratch
	// refuter, when non-nil, holds the dominance pass's buffers; parallel
	// workers pass one per goroutine alongside scratch.
	refuter *refuter
}

func (c EnumConfig) checkpointEvery() uint64 {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 1 << 20
}

// profileBudget is a race-safe profile allowance shared by concurrent
// partition scans.
type profileBudget struct{ remaining atomic.Int64 }

// newProfileBudget grants max profiles minus the already-spent credit.
func newProfileBudget(max, spent uint64) *profileBudget {
	b := &profileBudget{}
	rem := int64(max) - int64(spent)
	if rem < 0 {
		rem = 0
	}
	b.remaining.Store(rem)
	return b
}

// take debits up to want profiles and returns how many it granted: all of
// them, what is left when that is less, or 0 once the budget is
// exhausted. It never overdraws, so the grants of concurrent scans sum to
// exactly the budget.
func (b *profileBudget) take(want uint64) uint64 {
	for {
		rem := b.remaining.Load()
		if rem <= 0 {
			return 0
		}
		got := rem
		if want < uint64(rem) {
			got = int64(want)
		}
		if b.remaining.CompareAndSwap(rem, rem-got) {
			return uint64(got)
		}
	}
}

// exhausted reports whether the budget has no profiles left, without
// debiting anything: probes (post-merge status classification) must not
// consume allowance a concurrent or later scan could still use.
func (b *profileBudget) exhausted() bool { return b.remaining.Load() <= 0 }

// EnumeratePureNE scans the product space and returns all pure Nash
// equilibria it contains (up to maxEquilibria; 0 means collect all). The
// stability test is exact. The scan maintains the realized graph
// incrementally, so successive profiles that differ in one node's strategy
// cost only that node's rewiring.
func EnumeratePureNE(spec Spec, agg Aggregation, ss *SearchSpace, maxEquilibria int) (*NEResult, error) {
	return EnumeratePureNEOpts(spec, agg, ss, EnumConfig{MaxEquilibria: maxEquilibria})
}

// EnumeratePureNEOpts is EnumeratePureNE under run control: the scan
// observes cfg.Ctx within CheckEvery profiles, truncates at the
// MaxProfiles budget, periodically reports resumable checkpoints, and can
// itself resume from one. An interrupted-then-resumed scan checks exactly
// the profiles the uninterrupted scan would have and returns identical
// equilibria in identical order.
func EnumeratePureNEOpts(spec Spec, agg Aggregation, ss *SearchSpace, cfg EnumConfig) (*NEResult, error) {
	sp := obs.Trace().StartSpan("enum.scan")
	res, err := enumeratePureNEOpts(spec, agg, ss, cfg)
	if res != nil {
		sp.EndInt("checked", int64(res.Checked))
	} else {
		sp.End()
	}
	return res, err
}

// evalSampleMask samples 1 in 64 profile-stability checks into the
// HProfileEval latency histogram: two extra clock reads against a
// ~500ns check would be measurable at every profile, negligible at 1/64.
const evalSampleMask = 63

func enumeratePureNEOpts(spec Spec, agg Aggregation, ss *SearchSpace, cfg EnumConfig) (*NEResult, error) {
	n := spec.N()
	if len(ss.PerNode) != n {
		return nil, fmt.Errorf("core: search space covers %d nodes, spec has %d", len(ss.PerNode), n)
	}
	for u, set := range ss.PerNode {
		if len(set) == 0 {
			return nil, fmt.Errorf("core: node %d has an empty strategy set", u)
		}
	}
	poll := runctl.NewPoller(cfg.Ctx, cfg.CheckEvery)
	if err := poll.Arm(runctl.EnumStall); err != nil {
		return nil, err
	}
	res := &NEResult{Complete: true}
	idx := make([]int, n)
	var pending [][]int
	if cfg.Resume != nil {
		if cfg.Resume.Parts != nil {
			return nil, fmt.Errorf("core: checkpoint is from a parallel scan; resume with EnumeratePureNEParallelOpts")
		}
		if len(cfg.Resume.Cursor) != n {
			return nil, fmt.Errorf("core: checkpoint cursor covers %d nodes, search space has %d", len(cfg.Resume.Cursor), n)
		}
		for u, i := range cfg.Resume.Cursor {
			if i < 0 || i >= len(ss.PerNode[u]) {
				return nil, fmt.Errorf("core: checkpoint cursor[%d]=%d out of range [0,%d)", u, i, len(ss.PerNode[u]))
			}
		}
		if err := cfg.Resume.validate(spec); err != nil {
			return nil, err
		}
		copy(idx, cfg.Resume.Cursor)
		for k, pv := range cfg.Resume.Pending {
			if len(pv) != n {
				return nil, fmt.Errorf("core: checkpoint pending[%d] covers %d nodes, search space has %d", k, len(pv), n)
			}
			for u, i := range pv {
				if i < 0 || i >= len(ss.PerNode[u]) {
					return nil, fmt.Errorf("core: checkpoint pending[%d][%d]=%d out of range [0,%d)", k, u, i, len(ss.PerNode[u]))
				}
			}
			if k > 0 && !lexLessInts(cfg.Resume.Pending[k-1], pv) {
				return nil, fmt.Errorf("core: checkpoint pending entries not strictly ascending at %d", k)
			}
			if lexLessInts(pv, idx) {
				return nil, fmt.Errorf("core: checkpoint pending[%d] lies before the cursor", k)
			}
			pending = append(pending, append([]int(nil), pv...))
		}
		res.Checked = cfg.Resume.Checked
		res.Equilibria = append([]Profile(nil), cfg.Resume.Equilibria...)
	}
	qv := cfg.qview
	if qv == nil && cfg.Quotient != nil {
		var err error
		if qv, err = cfg.Quotient.ViewFor(ss, -1, 0); err != nil {
			return nil, err
		}
	}
	p := make(Profile, n)
	for u := range p {
		p[u] = ss.PerNode[u][idx[u]]
	}
	g := p.Realize(spec)
	es := cfg.scratch
	if es == nil {
		es = NewEvalScratch()
	}
	if cfg.DisableBatchBFS {
		es.SetBatchBFS(false)
	}
	// The scan counts into the scratch's block; every return publishes it.
	defer es.FlushCounts()
	tally := &es.tally
	// A refuting space runs the dominance pass on the scratch first; rf
	// stays nil when the pass refutes nothing, and the scan runs unpruned.
	var rf *refuter
	if ss.refute {
		if rf = cfg.refuter; rf == nil {
			rf = &refuter{}
		}
		if !rf.run(spec, agg, ss, es) {
			rf = nil
		}
	}
	// The realized graph is a fresh pointer, so Bind always invalidates a
	// reused scratch's oracle cache here while keeping its buffers warm.
	es.Bind(spec, g, agg)

	// Check nodes with larger strategy sets first: they are the ones whose
	// current strategy is least likely to be a best response, so the
	// early-exit in profileStable fires sooner. (Pure reordering — the
	// stability verdict is order-independent.)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(ss.PerNode[order[a]]) > len(ss.PerNode[order[b]])
	})

	budget := cfg.budget
	if budget == nil && cfg.MaxProfiles > 0 {
		budget = newProfileBudget(cfg.MaxProfiles, res.Checked)
	}
	ckptEvery := cfg.checkpointEvery()

	// advance steps the odometer to the next state, recording which digits
	// changed without touching the graph; true means the space wrapped
	// around (done). Rewires are deferred into the dirty list and applied
	// only when a state is actually evaluated (applyRewires), so runs of
	// skipped states — non-canonical orbit members under a quotient, or
	// pending emissions — cost pure odometer arithmetic. Carrying through a
	// singleton digit wraps it back to its only value, a no-op that is
	// never marked dirty. lastChanged is the node rewired by the last
	// applyRewires when exactly one digit changed since the previous
	// evaluation (-1 at the start, after a resume, or after a multi-digit
	// carry): the one node whose cached oracle survived the rewire.
	lastChanged := -1
	dirty := make([]int, 0, n)
	markDirty := func(u int) {
		for _, d := range dirty {
			if d == u {
				return
			}
		}
		dirty = append(dirty, u)
	}
	advance := func() bool {
		for u := n - 1; u >= 0; u-- {
			idx[u]++
			if idx[u] < len(ss.PerNode[u]) {
				markDirty(u)
				return false
			}
			idx[u] = 0
			if len(ss.PerNode[u]) > 1 {
				markDirty(u)
			}
		}
		return true
	}
	// skipAhead moves the cursor c states forward in odometer order, by
	// mixed-radix addition; the caller never moves it past the last state.
	skipAhead := func(c uint64) {
		for u := n - 1; u >= 0 && c > 0; u-- {
			w := uint64(len(ss.PerNode[u]))
			t := uint64(idx[u]) + c
			if d := int(t % w); d != idx[u] {
				idx[u] = d
				markDirty(u)
			}
			c = t / w
		}
	}
	applyRewires := func() {
		if len(dirty) == 1 {
			lastChanged = dirty[0]
		} else if len(dirty) > 1 {
			lastChanged = -1
		}
		for _, u := range dirty {
			p[u] = ss.PerNode[u][idx[u]]
			setStrategyArcs(spec, g, u, p[u])
			es.NoteRewire(u)
		}
		dirty = dirty[:0]
	}
	// Bulk suffix-block skipping: refuteLevel certifies that every state
	// sharing digits 0..level with a non-canonical state is refuted by the
	// same group element, so the scan can credit the whole block in one
	// arithmetic step instead of walking it. Enabled only for a serial scan
	// of the full compiled space (partition-local views read the pivot
	// digit outside the certificate) with no profile budget (a bulk credit
	// must not overdraw MaxProfiles mid-block) and with suffix products
	// that fit comfortably in uint64. suffSize[u] is the number of states
	// of the odometer suffix starting at level u.
	var suffSize []uint64
	if qv != nil && qv.pivot < 0 && budget == nil {
		suffSize = make([]uint64, n+1)
		suffSize[n] = 1
		for u := n - 1; u >= 0; u-- {
			w := uint64(len(ss.PerNode[u]))
			if suffSize[u+1] > (uint64(1)<<62)/w {
				suffSize = nil
				break
			}
			suffSize[u] = suffSize[u+1] * w
		}
	}
	skipLevel := -1
	// canonicalAt is the scan's canonicality test; under bulk skipping it
	// also leaves the refutation's block level in skipLevel.
	canonicalAt := func() bool {
		if suffSize == nil {
			return qv.canonical(idx)
		}
		ok, lvl := qv.refuteLevel(idx)
		skipLevel = lvl
		return ok
	}
	// bulkSkip credits and jumps over the rest of the suffix block sharing
	// digits 0..L with idx. extra is the number of states strictly between
	// idx and the new cursor; done means the block ran to the end of the
	// space; jumped means idx was repositioned (the caller skips its own
	// advance). A pending emission inside the block clamps the jump to it.
	bulkSkip := func(L int) (extra uint64, done, jumped bool) {
		var rest uint64
		for l := L + 1; l < n; l++ {
			rest += uint64(len(ss.PerNode[l])-1-idx[l]) * suffSize[l+1]
		}
		if rest == 0 {
			return 0, false, false
		}
		// d is the rank distance to the first state past the block, or to
		// the next pending emission (always past the cursor) when sooner.
		at := rank(suffSize, idx)
		d := rest + 1
		if len(pending) > 0 {
			d = min(d, rank(suffSize, pending[0])-at)
		}
		if at+d == suffSize[0] {
			return rest, true, false
		}
		skipAhead(d)
		return d - 1, false, true
	}
	// insertPending merges orbit index vectors (ascending, deduplicated,
	// all past the cursor) into the pending list, keeping it sorted.
	insertPending := func(vecs [][]int) {
		for _, v := range vecs {
			at := sort.Search(len(pending), func(i int) bool { return !lexLessInts(pending[i], v) })
			if at < len(pending) && intsEqual(pending[at], v) {
				continue
			}
			pending = append(pending, nil)
			copy(pending[at+1:], pending[at:])
			pending[at] = v
		}
	}
	// snapshot captures the resume state with the cursor at the next
	// unchecked profile.
	snapshot := func() *EnumCheckpoint {
		cp := &EnumCheckpoint{
			Cursor:     append([]int(nil), idx...),
			Checked:    res.Checked,
			Equilibria: append([]Profile(nil), res.Equilibria...),
		}
		for _, v := range pending {
			cp.Pending = append(cp.Pending, append([]int(nil), v...))
		}
		return cp
	}
	// stop finalizes an early exit: the partial result is returned with a
	// nil error, carrying the reason and the resume state.
	stop := func(st runctl.Status) (*NEResult, error) {
		res.Complete = false
		res.Status = st
		res.Resume = snapshot()
		return res, nil
	}

	// Sampled eval timing needs a registry to report to; without one the
	// scan reads no clock.
	timing := obs.Global() != nil
	var sinceCkpt uint64
	var sinceFlush int
	// capReturn finalizes a MaxEquilibria stop; the cursor advances past
	// the emitting state first so a resume does not re-emit it.
	capReturn := func() (*NEResult, error) {
		res.Complete = false
		res.Status = runctl.StatusBudget
		if !advance() {
			res.Resume = snapshot()
		}
		return res, nil
	}
	for {
		if err := poll.Check(); err != nil {
			return stop(runctl.StatusFromError(err))
		}
		// The cursor's state is counted on its own, or with the whole run of
		// statically refuted states it opens: refuted says which, and end
		// that the run reaches the end of the space.
		block, refuted, end := uint64(1), false, false
		if rf != nil {
			if gap, last := rf.gap(ss, idx); gap > 0 {
				block, refuted, end = gap, true, last
			}
		}
		// A run is credited exactly as an exhaustive scan would count it
		// state by state: a due checkpoint fires at the cursor unless the
		// budget stops there first, and the credit stops short at the next
		// checkpoint boundary and at the budget, leaving the cursor where
		// the exhaustive scan would stand.
		if cfg.OnCheckpoint != nil && sinceCkpt >= ckptEvery {
			if budget != nil && budget.exhausted() {
				return stop(runctl.StatusBudget)
			}
			sinceCkpt = 0
			es.FlushCounts()
			cfg.OnCheckpoint(snapshot())
		}
		c := block
		if cfg.OnCheckpoint != nil {
			c = min(c, ckptEvery-sinceCkpt)
		}
		if budget != nil {
			if c = budget.take(c); c == 0 {
				return stop(runctl.StatusBudget)
			}
		}
		if sinceFlush++; sinceFlush == runctl.CheckEvery {
			sinceFlush = 0
			es.FlushCounts()
		}
		sinceCkpt += c
		res.Checked += c
		tally.Add(obs.MProfilesChecked, int64(c))
		if refuted {
			// No state of the run is an equilibrium. The poll counted the
			// cursor's state; credit the rest of the block to it.
			tally.Add(obs.MProfilesRefuted, int64(c))
			poll.Credit(c - 1)
			if end && c == block {
				return res, nil
			}
			skipAhead(c)
			continue
		}
		switch {
		case len(pending) > 0 && intsEqual(pending[0], idx):
			// A known equilibrium: the orbit image of an earlier canonical
			// representative. Emit without evaluating; the profile is built
			// from the search space directly, because the incrementally
			// maintained p lags behind idx across skipped states.
			pending = pending[1:]
			tally.Inc(obs.MEquilibriaFound)
			tally.Inc(obs.MQuotientOrbits)
			res.Equilibria = append(res.Equilibria, profileAt(ss, idx))
			if cfg.MaxEquilibria > 0 && len(res.Equilibria) >= cfg.MaxEquilibria {
				return capReturn()
			}
		case qv != nil && !canonicalAt():
			// A lex-smaller orbit member decides this state: if that
			// representative is stable this state reappears via pending;
			// either way it is credited as checked without an evaluation.
			// Under bulk skipping the whole certified suffix block is
			// credited at once and the cursor jumps past it.
			tally.Inc(obs.MQuotientSkipped)
			if suffSize != nil {
				extra, done, jumped := bulkSkip(skipLevel)
				if extra > 0 {
					res.Checked += extra
					sinceCkpt += extra
					tally.Add(obs.MProfilesChecked, int64(extra))
					tally.Add(obs.MQuotientSkipped, int64(extra))
				}
				if done {
					return res, nil
				}
				if jumped {
					continue
				}
			}
		default:
			applyRewires()
			var stable bool
			if timing && res.Checked&evalSampleMask == 0 {
				t0 := time.Now()
				stable = profileStable(es, p, order, lastChanged)
				tally.Observe(obs.HProfileEval, time.Since(t0).Nanoseconds())
			} else {
				stable = profileStable(es, p, order, lastChanged)
			}
			if stable {
				tally.Inc(obs.MEquilibriaFound)
				res.Equilibria = append(res.Equilibria, p.Clone())
				if qv != nil {
					insertPending(qv.orbit(idx))
				}
				if cfg.MaxEquilibria > 0 && len(res.Equilibria) >= cfg.MaxEquilibria {
					return capReturn()
				}
			}
		}
		if advance() {
			return res, nil
		}
	}
}

// profileAt materializes the profile at an odometer state, cloning each
// strategy so later rewires cannot alias it (same deep-copy shape as
// Profile.Clone, so emitted equilibria are byte-identical either way).
func profileAt(ss *SearchSpace, idx []int) Profile {
	p := make(Profile, len(idx))
	for u, i := range idx {
		p[u] = append(Strategy(nil), ss.PerNode[u][i]...)
	}
	return p
}

// setStrategyArcs rewires node u's out-arcs in g to match strategy s.
func setStrategyArcs(spec Spec, g *graph.Digraph, u int, s Strategy) {
	g.RemoveArcs(u)
	for _, v := range s {
		g.AddArc(u, v, spec.Length(u, v))
	}
}

// profileStable is an exact per-profile stability check with early exit at
// the first node that has a strictly improving deviation. Each node's
// stability is decided by the pruned existence query HasImprovement,
// which is verdict-identical to a full BestExact enumeration (its root
// bound also subsumes the LowerBound short-circuit the pre-incremental
// checker used).
//
// The check starts with lastChanged, the node whose odometer digit the
// previous advance stepped (-1 when unknown): its oracle is independent
// of its own out-arcs, so it is the one node whose cached oracle survived
// the rewire — when it is the node with the improving deviation, the
// whole profile is refuted without a single traversal. The remaining
// nodes follow in the given order (larger strategy sets first). The
// stability verdict is a conjunction, so check order cannot change it —
// only how fast the early exit fires.
func profileStable(es *EvalScratch, p Profile, order []int, lastChanged int) bool {
	es.tally.Inc(obs.MStabilityChecks)
	if lastChanged >= 0 {
		o := es.OracleFor(lastChanged)
		if o.HasImprovement(o.Evaluate(p[lastChanged])) {
			return false
		}
	}
	for _, u := range order {
		if u == lastChanged {
			continue
		}
		o := es.OracleFor(u)
		if o.HasImprovement(o.Evaluate(p[u])) {
			return false
		}
	}
	return true
}
