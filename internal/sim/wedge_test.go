package sim

import (
	"errors"
	"testing"

	"secpref/internal/cpu"
	"secpref/internal/mem"
)

// blackHolePort accepts every load and never completes it: the issuing
// core stalls at the first load's retirement and the machine drains to
// full quiescence — the all-components-idle edge the run loop's wedge
// clamp exists for.
type blackHolePort struct{}

func (blackHolePort) IssueLoad(*mem.Request) bool { return true }

// wedgedMachine builds a normal machine, then swaps in a core whose
// load port is a black hole. Everything downstream of the core is real,
// so stores and writebacks drain normally before the machine goes
// quiescent.
func wedgedMachine(t *testing.T, noSkip bool) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxInstrs = 10_000
	cfg.DisableTLB = true
	m, err := NewMachine(cfg, smokeTrace(t, "bfs-3B", 12_000))
	if err != nil {
		t.Fatal(err)
	}
	m.core = cpu.New(cfg.Core, smokeTrace(t, "bfs-3B", 12_000), blackHolePort{}, l1dStorePort{m.l1d})
	m.core.SetPool(m.pool)
	m.core.OnCommitLoad = m.CommitLoad
	m.pairs[0].core = m.core
	m.noSkip = noSkip
	return m
}

// TestWedgeDetectionQuiescent pins the fully-quiescent wedge edge: when
// no component will ever act again (calendar empty, NextEvent reports
// mem.NoEvent), the event engine must not silently stall or spin — the
// run loop's clamp turns the empty calendar into one bounded jump to
// the wedge boundary and reports ErrNoProgress on exactly the cycle the
// per-cycle reference engine reports it.
func TestWedgeDetectionQuiescent(t *testing.T) {
	run := func(noSkip bool) (*Machine, error) {
		m := wedgedMachine(t, noSkip)
		return m, m.run(m.Instructions()+10_000, 100_000_000, mem.NoEvent)
	}

	skipM, skipErr := run(false)
	stepM, stepErr := run(true)

	if !errors.Is(skipErr, ErrNoProgress) {
		t.Fatalf("event engine: got %v, want ErrNoProgress", skipErr)
	}
	if !errors.Is(stepErr, ErrNoProgress) {
		t.Fatalf("reference engine: got %v, want ErrNoProgress", stepErr)
	}
	if skipM.now != stepM.now {
		t.Errorf("wedge reported at cycle %d by the event engine, %d by per-cycle stepping", skipM.now, stepM.now)
	}
	// The machine must be genuinely quiescent: an empty calendar is what
	// forces the clamp path. If a component were re-arming itself every
	// cycle (spinning to the boundary instead of jumping), it would
	// still be armed here.
	if next := skipM.evq.Next(); next != mem.NoEvent {
		t.Errorf("calendar not empty at the wedge boundary: next event at %d", next)
	}
}
