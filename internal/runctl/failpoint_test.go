package runctl

import (
	"context"
	"testing"
	"time"
)

func TestParseFailpoint(t *testing.T) {
	if fp, err := parseFailpoint(""); err != nil || fp != (failpoint{}) {
		t.Fatalf("empty value: %+v, %v; want nothing armed", fp, err)
	}
	if fp, err := parseFailpoint("enum.stall@4096"); err != nil || fp != (failpoint{name: EnumStall, at: 4096}) {
		t.Fatalf("enum.stall@4096: %+v, %v", fp, err)
	}
	for _, bad := range []string{"enum.stall", "enum.stall@", "enum.stall@0", "enum.stall@-3", "enum.stall@x", "walk.stall@5"} {
		if _, err := parseFailpoint(bad); err == nil {
			t.Errorf("%q parsed; want an error", bad)
		}
	}
}

// TestPollerStallParksUntilContextEnds: an armed poller parks at the
// first poll tick after its work count, bulk credits included, reaches
// the threshold, and returns the context's error once it ends.
func TestPollerStallParksUntilContextEnds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p := NewPoller(ctx, 4)
	p.stallAt = 100
	for i := 0; i < 8; i++ { // two poll ticks below the threshold
		if err := p.Check(); err != nil {
			t.Fatalf("stopped at check %d before the threshold: %v", i, err)
		}
	}
	p.Credit(95) // 8 checks + 95 credited = 103 ≥ 100
	t0 := time.Now()
	var err error
	for i := 0; i < 4 && err == nil; i++ { // the next tick parks
		err = p.Check()
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("armed poller returned %v, want the deadline", err)
	}
	if waited := time.Since(t0); waited < 20*time.Millisecond {
		t.Fatalf("armed poller returned after %v without parking", waited)
	}
}

// TestPollerArmUnsetIsInert: with the failpoint variable unset, as in
// every test process, Arm leaves the poller unarmed.
func TestPollerArmUnsetIsInert(t *testing.T) {
	if fp, err := armedFailpoint(); err != nil || fp.at != 0 {
		t.Skipf("%s is set in this process (%+v, %v)", FailpointEnv, fp, err)
	}
	p := NewPoller(context.Background(), 1)
	if err := p.Arm(EnumStall); err != nil || p.stallAt != 0 {
		t.Fatalf("unarmed poller: stallAt %d, error %v", p.stallAt, err)
	}
}
