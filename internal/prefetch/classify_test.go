package prefetch

import (
	"testing"

	"secpref/internal/mem"
)

func TestClassifierLate(t *testing.T) {
	c := NewClassifier()
	c.OnDemandMiss(100, true, 1000)
	if c.Class.Late != 1 || c.Class.TotalMisses != 1 {
		t.Errorf("late=%d total=%d", c.Class.Late, c.Class.TotalMisses)
	}
}

func TestClassifierCommitLate(t *testing.T) {
	c := NewClassifier()
	// The shadow (on-access) prefetcher would have requested line 200.
	c.ShadowIssue(200, 0x400, mem.LvlL1D)
	// The demand miss arrives before the real (on-commit) prefetcher
	// triggered...
	c.OnDemandMiss(200, false, 1000)
	// ...and the real prefetcher asks for it shortly after: commit-late.
	c.OnRealIssue(200, 1500)
	if c.Class.CommitLate != 1 {
		t.Errorf("commit-late=%d, want 1", c.Class.CommitLate)
	}
	if c.Class.Uncovered != 0 || c.Class.MissedOpp != 0 {
		t.Errorf("misclassified: %+v", c.Class)
	}
}

func TestClassifierMissedOpportunity(t *testing.T) {
	c := NewClassifier()
	c.ShadowIssue(300, 0x400, mem.LvlL1D)
	c.OnDemandMiss(300, false, 1000)
	// The real prefetcher never asks; the window expires.
	c.OnRealIssue(999999, 1000+pendingWindow+10)
	if c.Class.MissedOpp != 1 {
		t.Errorf("missed-opp=%d, want 1 (%+v)", c.Class.MissedOpp, c.Class)
	}
}

func TestClassifierUncovered(t *testing.T) {
	c := NewClassifier()
	c.OnDemandMiss(400, false, 1000)
	if c.Class.Uncovered != 1 {
		t.Errorf("uncovered=%d, want 1", c.Class.Uncovered)
	}
}

func TestClassifierFinalizeResolvesPending(t *testing.T) {
	c := NewClassifier()
	c.ShadowIssue(500, 0x400, mem.LvlL1D)
	c.OnDemandMiss(500, false, 1000)
	c.Finalize()
	if c.Class.MissedOpp != 1 {
		t.Errorf("finalize: missed-opp=%d", c.Class.MissedOpp)
	}
}

func TestClassifierShadowWindowBounded(t *testing.T) {
	c := NewClassifier()
	for i := 0; i < shadowWindow+100; i++ {
		c.ShadowIssue(mem.Line(i), 0x400, mem.LvlL1D)
	}
	if len(c.shadowIssued) > shadowWindow {
		t.Errorf("shadow window grew to %d", len(c.shadowIssued))
	}
	// The oldest entries must have been forgotten.
	c.OnDemandMiss(0, false, 1)
	if c.Class.Uncovered != 1 {
		t.Error("expired shadow entry still classified as covered")
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("no-such-prefetcher", nil); err == nil {
		t.Fatal("expected unknown-prefetcher error")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Skip("no prefetchers linked into this test binary")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
}

func TestNone(t *testing.T) {
	var n None
	if n.Name() != "none" || n.StorageBytes() != 0 {
		t.Error("None misbehaves")
	}
	n.Train(Event{})
}
