// Package obs is the observability substrate of the BBC solver stack:
// race-safe atomic counters and timers collected in a Registry, a
// structured JSONL run journal, and a throttled progress/ETA reporter.
//
// Everything is nil-safe: a nil *Registry, *Journal or *Progress accepts
// every call as a no-op. The hottest paths (profile enumeration, oracle
// builds, BFS traversals) do not touch the registry per event: they count
// into a goroutine-owned Tally that their owner flushes periodically. The
// package depends on the standard library only and sits below every other
// package in the repository.
//
// The registry is global-but-injectable: library code reads Global() at
// operation entry, CLIs and tests install one with SetGlobal. The global
// defaults to nil (observation off), so test and benchmark baselines are
// unaffected unless a registry is explicitly installed.
package obs

import (
	"sync/atomic"
	"time"
)

// Metric identifies one counter in a Registry. Counter metrics count
// events; *Nanos metrics accumulate wall time in nanoseconds.
type Metric int

const (
	// MBFS counts unit-length shortest-path traversals (BFS and
	// BFS-frontier), the innermost primitive of the best-response oracle.
	MBFS Metric = iota
	// MDijkstra counts weighted shortest-path traversals.
	MDijkstra
	// MOracleBuild counts best-response oracle constructions (each is n−1
	// node-deleted traversals).
	MOracleBuild
	// MOracleBuildNanos accumulates wall time spent building oracles:
	// exact for standalone builds, the 1-in-64 sampled builds' time × 64
	// for builds on a core.EvalScratch.
	MOracleBuildNanos
	// MOracleEval counts strategy evaluations against an oracle.
	MOracleEval
	// MBestExact counts exact best-response enumerations.
	MBestExact
	// MBestExactLeaves counts maximal strategies examined across all exact
	// enumerations (the pruned search-tree leaf count).
	MBestExactLeaves
	// MBestGreedy counts greedy best-response computations.
	MBestGreedy
	// MStabilityChecks counts whole-profile stability tests.
	MStabilityChecks
	// MDeviationChecks counts per-node deviation checks.
	MDeviationChecks
	// MDeviationsFound counts strictly improving deviations discovered.
	MDeviationsFound
	// MProfilesChecked counts profiles scanned by NE enumeration.
	MProfilesChecked
	// MEquilibriaFound counts pure Nash equilibria discovered.
	MEquilibriaFound
	// MWalkSteps counts best-response walk steps attempted.
	MWalkSteps
	// MWalkMoves counts walk steps that rewired the graph.
	MWalkMoves
	// MSimRounds counts synchronous best-response rounds.
	MSimRounds
	// MTrials counts completed ensemble trials.
	MTrials
	// MWorkerTasks counts tasks executed by parallel workers.
	MWorkerTasks
	// MWorkerBusyNanos accumulates worker busy time; divided by wall time ×
	// worker count it yields pool utilization.
	MWorkerBusyNanos
	// MOracleCacheHits counts oracle queries served verbatim from an
	// EvalScratch cache, skipping the n−1 node-deleted traversals a rebuild
	// would cost.
	MOracleCacheHits
	// MHasImprovement counts pruned stability queries
	// (Oracle.HasImprovement), the existence-only alternative to a full
	// exact best-response enumeration.
	MHasImprovement
	// MServeSubmitted counts job submissions accepted by the batch-solve
	// service (including submissions answered by dedup).
	MServeSubmitted
	// MServeDeduped counts submissions that attached to an identical
	// in-flight or cached job instead of enqueueing a new solve.
	MServeDeduped
	// MServeSolves counts underlying solver invocations started by the
	// service; with dedup, N identical submissions cost one solve.
	MServeSolves
	// MServeCompleted counts jobs that reached a terminal state with a
	// result (any run status, including truncations).
	MServeCompleted
	// MServeRejected counts jobs refused before running: queue full, or
	// queued work rejected by a drain with a retry hint.
	MServeRejected
	// MServeResumed counts solves that continued from a persisted
	// checkpoint instead of starting at the first profile.
	MServeResumed
	// MFleetLeases counts shard leases granted by the fleet coordinator
	// (first grants and re-grants alike).
	MFleetLeases
	// MFleetReleases counts leases returned to pending before completion:
	// lease deadlines that expired and shard attempts that failed.
	MFleetReleases
	// MFleetRetries counts fleet client request retries (network errors,
	// 5xx, 429) — each one waited out a backoff delay first.
	MFleetRetries
	// MFleetDuplicates counts shard completions that arrived for an
	// already-merged shard (a re-lease race); they are verified against
	// the merged result and dropped, never applied twice.
	MFleetDuplicates
	// MFleetShardsDone counts shards merged into the fleet result.
	MFleetShardsDone
	// MFleetWorkerFaults counts shard attempts that failed on a worker:
	// exhausted client retries, rejected jobs, incomplete runs.
	MFleetWorkerFaults
	// MBFSBatch counts bit-parallel multi-source traversals
	// (Digraph.BFSBatchInto); each one replaces up to 64 scalar BFS calls.
	MBFSBatch
	// MBFSBatchWaves counts frontier waves expanded by batched traversals —
	// one wave settles one distance level for every source at once.
	MBFSBatchWaves
	// MBFSBatchSources counts sources served by batched traversals; divided
	// by MBFSBatch it yields the achieved bit-parallel packing (≤ 64).
	MBFSBatchSources
	// MQuotientSkipped counts odometer states skipped as non-canonical under
	// the automorphism group of a quotiented scan; each one is a stability
	// evaluation the symmetry argument made unnecessary.
	MQuotientSkipped
	// MQuotientOrbits counts equilibria emitted by orbit re-expansion (copies
	// of a canonical representative, not independently evaluated).
	MQuotientOrbits
	// MServeQueueFull counts submissions refused because the bounded job
	// queue was full (a subset of MServeRejected, split out so saturation
	// is distinguishable from drain rejections on a dashboard).
	MServeQueueFull
	// MServeThrottled counts submissions refused by a per-client
	// token-bucket rate limit.
	MServeThrottled
	// MServeQuotaDenied counts submissions refused by a per-client
	// in-flight quota.
	MServeQuotaDenied
	// MServeStoreHits counts submissions answered from the durable job
	// store: a completed result from an earlier process generation served
	// without re-solving (the cross-restart dedup tier).
	MServeStoreHits
	// MServeRequeued counts jobs found queued/running in the store at
	// startup and re-queued, resuming work orphaned by a crash.
	MServeRequeued
	// MStoreAppends counts job-state transitions appended to the store WAL.
	MStoreAppends
	// MStoreAppendErrors counts WAL appends that failed (the service keeps
	// running; the transition is lost to the durable tier only).
	MStoreAppendErrors
	// MStoreCompactions counts WAL compactions: index snapshots published
	// and the WAL truncated behind them.
	MStoreCompactions
	// MStoreReplayed counts WAL records applied during an Open replay.
	MStoreReplayed
	// MStoreQuarantined counts store records diverted to the quarantine
	// file: checksum/decode failures and semantically unreplayable
	// transitions.
	MStoreQuarantined
	// MFleetThrottled counts shard attempts released back to pending on
	// worker backpressure (429/503 + Retry-After at dispatch) without
	// burning a MaxAttempts lease attempt.
	MFleetThrottled
	// MJournalRotations counts size-capped journal rotations (the live
	// file renamed to .1 and restarted).
	MJournalRotations

	metricCount // sentinel, keep last
)

// metricNames are the stable external names used in snapshots, journals,
// expvar exports and benchmark metrics. Renaming one is a schema change.
var metricNames = [metricCount]string{
	MBFS:               "graph.bfs",
	MDijkstra:          "graph.dijkstra",
	MOracleBuild:       "oracle.builds",
	MOracleBuildNanos:  "oracle.build_nanos",
	MOracleEval:        "oracle.evals",
	MBestExact:         "oracle.best_exact",
	MBestExactLeaves:   "oracle.best_exact_leaves",
	MBestGreedy:        "oracle.best_greedy",
	MStabilityChecks:   "core.stability_checks",
	MDeviationChecks:   "core.deviation_checks",
	MDeviationsFound:   "core.deviations_found",
	MProfilesChecked:   "core.profiles_checked",
	MEquilibriaFound:   "core.equilibria_found",
	MWalkSteps:         "dynamics.steps",
	MWalkMoves:         "dynamics.moves",
	MSimRounds:         "dynamics.sim_rounds",
	MTrials:            "dynamics.trials",
	MWorkerTasks:       "parallel.tasks",
	MWorkerBusyNanos:   "parallel.busy_nanos",
	MOracleCacheHits:   "oracle.cache_hits",
	MHasImprovement:    "oracle.has_improvement",
	MServeSubmitted:    "serve.jobs_submitted",
	MServeDeduped:      "serve.jobs_deduped",
	MServeSolves:       "serve.solves",
	MServeCompleted:    "serve.jobs_completed",
	MServeRejected:     "serve.jobs_rejected",
	MServeResumed:      "serve.jobs_resumed",
	MFleetLeases:       "fleet.leases",
	MFleetReleases:     "fleet.releases",
	MFleetRetries:      "fleet.retries",
	MFleetDuplicates:   "fleet.duplicate_results",
	MFleetShardsDone:   "fleet.shards_done",
	MFleetWorkerFaults: "fleet.worker_faults",
	MBFSBatch:          "graph.bfs_batch",
	MBFSBatchWaves:     "bfs.batch_waves",
	MBFSBatchSources:   "bfs.batch_sources",
	MQuotientSkipped:   "quotient.skipped",
	MQuotientOrbits:    "quotient.orbit_equilibria",
	MServeQueueFull:    "serve.queue_full",
	MServeThrottled:    "admission.throttled",
	MServeQuotaDenied:  "admission.quota_denied",
	MServeStoreHits:    "serve.store_hits",
	MServeRequeued:     "serve.jobs_requeued",
	MStoreAppends:      "store.wal_appends",
	MStoreAppendErrors: "store.wal_append_errors",
	MStoreCompactions:  "store.compactions",
	MStoreReplayed:     "store.wal_replayed",
	MStoreQuarantined:  "store.records_quarantined",
	MFleetThrottled:    "fleet.throttled",
	MJournalRotations:  "obs.journal_rotations",
}

// String returns the metric's stable external name.
func (m Metric) String() string {
	if m < 0 || m >= metricCount {
		return "unknown"
	}
	return metricNames[m]
}

// Metrics returns every defined metric, in declaration order.
func Metrics() []Metric {
	out := make([]Metric, metricCount)
	for i := range out {
		out[i] = Metric(i)
	}
	return out
}

// Registry is a fixed set of race-safe counters and fixed-boundary
// histograms (see HMetric). The zero value is ready to use; a nil
// *Registry ignores all updates and reads as empty.
type Registry struct {
	counters [metricCount]atomic.Int64

	// Histogram state: per-metric bucket counts (fixed arrays so the zero
	// value needs no lazy setup), value sums and observation counts.
	hbuckets [hMetricCount][histMaxBuckets]atomic.Int64
	hsum     [hMetricCount]atomic.Int64
	hcount   [hMetricCount]atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add adds n to the metric. No-op on a nil registry.
func (r *Registry) Add(m Metric, n int64) {
	if r != nil {
		r.counters[m].Add(n)
	}
}

// Inc adds 1 to the metric. No-op on a nil registry.
func (r *Registry) Inc(m Metric) {
	if r != nil {
		r.counters[m].Add(1)
	}
}

// Get returns the metric's current value; 0 on a nil registry.
func (r *Registry) Get(m Metric) int64 {
	if r == nil {
		return 0
	}
	return r.counters[m].Load()
}

// Started returns a start token for ElapsedSince: the current time when
// the registry is active, the zero Time on a nil registry (no clock read).
// The Started/ElapsedSince pair allocates no closure, so hot paths can
// time themselves without per-call heap traffic.
func (r *Registry) Started() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// ElapsedSince adds the wall time elapsed since the Started token to the
// *Nanos metric. No-op on a nil registry or a zero token.
func (r *Registry) ElapsedSince(m Metric, t0 time.Time) {
	if r == nil || t0.IsZero() {
		return
	}
	r.counters[m].Add(time.Since(t0).Nanoseconds())
}

// Reset zeroes every counter and histogram. No-op on a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for i := range r.counters {
		r.counters[i].Store(0)
	}
	r.resetHists()
}

// Snapshot returns the current nonzero counters keyed by stable metric
// name. A nil registry snapshots to nil.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	for i := range r.counters {
		if v := r.counters[i].Load(); v != 0 {
			out[metricNames[i]] = v
		}
	}
	return out
}

// Diff returns after−before per key, omitting zero deltas. Either map may
// be nil.
func Diff(before, after map[string]int64) map[string]int64 {
	if len(after) == 0 && len(before) == 0 {
		return nil
	}
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range before {
		if _, ok := after[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// global holds the process-wide registry; nil means observation off.
var global atomic.Pointer[Registry]

// Global returns the installed process-wide registry, or nil when
// observation is off. Library hot paths read it once per operation.
func Global() *Registry { return global.Load() }

// SetGlobal installs r as the process-wide registry (nil turns
// observation off) and returns the previous registry so callers — tests
// in particular — can restore it.
func SetGlobal(r *Registry) *Registry {
	return global.Swap(r)
}
