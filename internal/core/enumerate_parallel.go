package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// EnumeratePureNEParallelOpts is EnumeratePureNEOpts with the product
// space partitioned across workers: the scan fixes each strategy of the
// first node whose strategy set has more than one entry (the pivot) and
// hands the resulting sub-space to a worker. Results are merged in
// partition order, so the equilibria come back in the same order as the
// serial scan; cfg.MaxEquilibria caps the total collected, and a scan
// capped that way is not Complete. At most cfg.Workers goroutines pull
// partitions from a queue (never one goroutine per partition), each
// partition scan observes cfg.Ctx and the shared cfg.MaxProfiles budget,
// and a panic inside a partition surfaces as an error naming that
// partition instead of killing the process. A partition of a pinned space
// runs the dominance pass on its own sub-space, where the fixed pivot can
// refute more. Checkpointing is partition-granular: OnCheckpoint fires
// after each completed partition, and resuming skips completed
// partitions, so an interrupted-then-resumed scan merges to exactly the
// uninterrupted result.
func EnumeratePureNEParallelOpts(spec Spec, agg Aggregation, ss *SearchSpace, cfg EnumConfig) (*NEResult, error) {
	n := spec.N()
	if len(ss.PerNode) != n {
		return nil, fmt.Errorf("core: search space covers %d nodes, spec has %d", len(ss.PerNode), n)
	}
	pivot := -1
	for u, set := range ss.PerNode {
		if len(set) == 0 {
			return nil, fmt.Errorf("core: node %d has an empty strategy set", u)
		}
		if pivot < 0 && len(set) > 1 {
			pivot = u
		}
	}
	if pivot < 0 {
		// Single profile; no parallelism to extract.
		if cfg.Resume != nil && cfg.Resume.Parts != nil {
			return nil, fmt.Errorf("core: parallel checkpoint has %d partitions, search space has none", len(cfg.Resume.Parts))
		}
		return EnumeratePureNEOpts(spec, agg, ss, cfg)
	}

	parts := ss.PerNode[pivot]
	done := make([]*PartProgress, len(parts))
	if cfg.Resume != nil {
		if cfg.Resume.Cursor != nil {
			return nil, fmt.Errorf("core: checkpoint is from a serial scan; resume with EnumeratePureNEOpts")
		}
		if len(cfg.Resume.Parts) != len(parts) {
			return nil, fmt.Errorf("core: checkpoint has %d partitions, search space has %d", len(cfg.Resume.Parts), len(parts))
		}
		if err := cfg.Resume.validate(spec); err != nil {
			return nil, err
		}
		copy(done, cfg.Resume.Parts)
	}
	var resumedChecked uint64
	pending := make([]int, 0, len(parts))
	for i := range parts {
		if done[i] != nil {
			resumedChecked += done[i].Checked
		} else {
			pending = append(pending, i)
		}
	}

	budget := cfg.budget
	if budget == nil && cfg.MaxProfiles > 0 {
		budget = newProfileBudget(cfg.MaxProfiles, resumedChecked)
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// ictx lets the first hard error (panic, internal failure) stop the
	// remaining partitions promptly.
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	results := make([]*NEResult, len(parts))
	errs := make([]error, len(parts))
	jobs := make(chan int)
	var (
		wg     sync.WaitGroup
		ckptMu sync.Mutex // serializes done[] updates and OnCheckpoint calls
	)
	partSnapshot := func() *EnumCheckpoint {
		cp := &EnumCheckpoint{Parts: append([]*PartProgress(nil), done...)}
		for _, pp := range cp.Parts {
			if pp != nil {
				cp.Checked += pp.Checked
			}
		}
		return cp
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		track := w + 1
		go func() {
			defer wg.Done()
			reg := obs.Global()
			tr := obs.Trace()
			// One evaluation scratch and one set of dominance-pass buffers
			// per worker goroutine: traversal buffers and oracle arenas stay
			// warm across every partition this worker drains (each partition
			// re-binds to its own realized graph).
			es := NewEvalScratch()
			rf := &refuter{}
			for i := range jobs {
				reg.Inc(obs.MWorkerTasks)
				// Busy time covers partition work only, not queue wait:
				// the timer starts after the job is received.
				t0 := reg.Started()
				sp := tr.StartSpan("enum.partition").OnTrack(track)
				errs[i] = runctl.Guard(fmt.Sprintf("enumeration partition %d (pivot node %d, strategy %v)", i, pivot, parts[i]), func() error {
					sub := &SearchSpace{PerNode: make([][]Strategy, n), refute: ss.refute}
					copy(sub.PerNode, ss.PerNode)
					sub.PerNode[pivot] = []Strategy{parts[i]}
					subCfg := EnumConfig{
						Ctx:             ictx,
						MaxEquilibria:   cfg.MaxEquilibria,
						CheckEvery:      cfg.CheckEvery,
						DisableBatchBFS: cfg.DisableBatchBFS,
						budget:          budget,
						scratch:         es,
						refuter:         rf,
					}
					if cfg.Quotient != nil {
						// Partition-local quotient view: states are skipped
						// only when a lex-smaller orbit member shares this
						// partition's pivot digit, and orbits re-expand within
						// the partition — every orbit member is emitted by its
						// own partition, so the merge in partition order
						// reproduces the plain scan without coordination.
						qv, err := cfg.Quotient.ViewFor(sub, pivot, i)
						if err != nil {
							return err
						}
						subCfg.qview = qv
					}
					r, err := EnumeratePureNEOpts(spec, agg, sub, subCfg)
					results[i] = r
					return err
				})
				sp.EndInt("part", int64(i))
				reg.ElapsedSince(obs.MWorkerBusyNanos, t0)
				if errs[i] != nil {
					icancel()
					continue
				}
				if results[i].Status.Complete() {
					ckptMu.Lock()
					done[i] = &PartProgress{Checked: results[i].Checked, Equilibria: results[i].Equilibria}
					if cfg.OnCheckpoint != nil {
						cfg.OnCheckpoint(partSnapshot())
					}
					ckptMu.Unlock()
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, i := range pending {
			select {
			case jobs <- i:
			case <-ictx.Done():
				return
			}
		}
	}()
	wg.Wait()

	for _, i := range pending {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}

	merged := &NEResult{Complete: true}
	// Read-only probe: take() here would debit one profile from the shared
	// budget as a side effect of classifying the merge, so an
	// exactly-sufficient MaxProfiles would drift by one per probe.
	budgetSpent := budget != nil && budget.exhausted()
	capped := false
	for i := range parts {
		var (
			checked uint64
			eqs     []Profile
			status  runctl.Status
		)
		switch {
		case done[i] != nil:
			checked, eqs, status = done[i].Checked, done[i].Equilibria, runctl.StatusComplete
		case results[i] != nil:
			checked, eqs, status = results[i].Checked, results[i].Equilibria, results[i].Status
			merged.Complete = false
		default:
			// Never dispatched: the context stopped the run first, unless
			// the shared budget drained before this partition's turn.
			status = runctl.StatusFromContext(ctx)
			if status == runctl.StatusComplete && budgetSpent {
				status = runctl.StatusBudget
			}
			merged.Complete = false
		}
		merged.Checked += checked
		merged.Status = runctl.Merge(merged.Status, status)
		for _, p := range eqs {
			if cfg.MaxEquilibria > 0 && len(merged.Equilibria) >= cfg.MaxEquilibria {
				capped = true
				break
			}
			merged.Equilibria = append(merged.Equilibria, p)
		}
	}
	if capped {
		merged.Complete = false
		merged.Status = runctl.Merge(merged.Status, runctl.StatusBudget)
	}
	if !merged.Status.Complete() {
		merged.Resume = partSnapshot()
	}
	return merged, nil
}
