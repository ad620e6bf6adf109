// Package runctl is the run-control layer of the BBC solver stack:
// cancellation and deadline propagation for the long all-or-nothing scans
// (NE enumeration, best-response walks, ensembles, experiment suites),
// explicit work budgets with a distinct "budget exhausted" status,
// versioned atomic checkpoints for interrupt/resume, POSIX signal wiring
// for the CLIs, and panic containment for worker pools.
//
// The package sits below core/dynamics/exper (it depends only on the
// standard library) and encodes one contract: a long computation never
// dies with nothing. It either completes, or it stops at a bounded
// distance past a cancel/deadline/budget event with a Status explaining
// why, partial results intact, and — when checkpointing is on — a
// snapshot from which a resumed run reproduces the uninterrupted result
// byte-for-byte.
package runctl

import (
	"context"
	"errors"
	"fmt"
)

// Status classifies how a run ended. The zero value (StatusComplete)
// means the computation ran to completion; every other value is a
// graceful-degradation outcome carrying partial results.
type Status int

const (
	// StatusComplete: the whole computation finished.
	StatusComplete Status = iota
	// StatusCancelled: a context cancel (signal, parent teardown) stopped
	// the run.
	StatusCancelled
	// StatusDeadline: the context deadline (-timeout) expired.
	StatusDeadline
	// StatusBudget: an explicit work budget (-max-profiles, -max-steps,
	// max equilibria cap) was exhausted.
	StatusBudget
)

// statusNames are the stable external names used in JSON output, journal
// records and checkpoints. Renaming one is a schema change.
var statusNames = [...]string{
	StatusComplete:  "complete",
	StatusCancelled: "cancelled",
	StatusDeadline:  "deadline",
	StatusBudget:    "budget",
}

// String returns the status's stable external name.
func (s Status) String() string {
	if s < 0 || int(s) >= len(statusNames) {
		return fmt.Sprintf("Status(%d)", int(s))
	}
	return statusNames[s]
}

// MarshalText makes Status serialize as its stable name in JSON.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a stable status name.
func (s *Status) UnmarshalText(b []byte) error {
	for i, name := range statusNames {
		if name == string(b) {
			*s = Status(i)
			return nil
		}
	}
	return fmt.Errorf("runctl: unknown status %q", b)
}

// Complete reports whether the run finished the whole computation.
func (s Status) Complete() bool { return s == StatusComplete }

// ErrBudget is the sentinel cause for budget-exhausted stops, usable with
// errors.Is.
var ErrBudget = errors.New("runctl: work budget exhausted")

// StatusFromContext maps a context's error to a Status: nil → complete,
// Canceled → cancelled, DeadlineExceeded → deadline.
func StatusFromContext(ctx context.Context) Status {
	if ctx == nil {
		return StatusComplete
	}
	return StatusFromError(ctx.Err())
}

// StatusFromError classifies an error chain into a Status. Unrecognized
// non-nil errors map to StatusCancelled (the run did not complete and no
// budget was involved).
func StatusFromError(err error) Status {
	switch {
	case err == nil:
		return StatusComplete
	case errors.Is(err, ErrBudget):
		return StatusBudget
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	default:
		return StatusCancelled
	}
}

// Merge combines the statuses of two sub-computations into the status of
// their union: complete only when both completed, otherwise the
// most-urgent interruption (cancelled > deadline > budget) wins, so a
// signal is never misreported as a mere budget stop.
func Merge(a, b Status) Status {
	if a == b {
		return a
	}
	order := func(s Status) int {
		switch s {
		case StatusCancelled:
			return 3
		case StatusDeadline:
			return 2
		case StatusBudget:
			return 1
		default:
			return 0
		}
	}
	if order(a) >= order(b) {
		return a
	}
	return b
}

// CheckEvery is the default number of loop iterations (profiles, steps,
// trials) between context polls in instrumented hot loops: cheap enough
// to be invisible, frequent enough that cancellation latency is bounded
// by a few thousand stability checks.
const CheckEvery = 4096

// Poller amortizes context checks over a hot loop: Check returns the
// context's error at most once per Every iterations (and on the first
// call), so the loop pays one counter increment per iteration instead of
// an atomic context read. A zero/nil-context Poller never stops the loop.
type Poller struct {
	ctx   context.Context
	every uint64
	count uint64
	err   error
	// credit counts units of work the loop did in bulk, beyond one per
	// Check (see Credit); stallAt, when non-zero, is the work count at
	// which an armed stall failpoint parks the loop (see Arm).
	credit  uint64
	stallAt uint64
}

// NewPoller returns a poller checking ctx every `every` iterations
// (0 means CheckEvery). A nil ctx yields an inert poller.
func NewPoller(ctx context.Context, every uint64) *Poller {
	if every == 0 {
		every = CheckEvery
	}
	return &Poller{ctx: ctx, every: every}
}

// Check returns a non-nil error as soon as the context is done, observed
// at iteration granularity Every. Once non-nil, the same error is
// returned forever.
func (p *Poller) Check() error {
	if p.err != nil {
		return p.err
	}
	if p.ctx == nil {
		return nil
	}
	p.count++
	if p.count%p.every != 1 && p.every > 1 {
		return nil
	}
	if p.stallAt != 0 && p.count+p.credit >= p.stallAt {
		<-p.ctx.Done()
	}
	p.err = p.ctx.Err()
	return p.err
}

// Credit records n units of work the loop did without a Check each — a
// block of profiles credited in one step — so that an armed stall
// failpoint counts them. It does not move the poll schedule.
func (p *Poller) Credit(n uint64) { p.credit += n }
