package spp

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

func capture() (*[]mem.Line, prefetch.Issuer) {
	var out []mem.Line
	return &out, func(l mem.Line, _ mem.Addr, _ mem.Level) bool {
		out = append(out, l)
		return true
	}
}

func TestSignaturePathLookahead(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	// Steady +2 deltas within pages: the signature path should predict
	// and run ahead.
	line := mem.Line(0)
	for i := 0; i < 400; i++ {
		p.Train(prefetch.Event{Line: line, IP: 0x400})
		line += 2
	}
	if len(*got) == 0 {
		t.Fatal("no prefetches for a steady delta pattern")
	}
	ahead := 0
	for _, l := range *got {
		if uint64(l)%2 == uint64(line)%2 { // on the delta lattice
			ahead++
		}
	}
	if ahead < len(*got)/2 {
		t.Errorf("most prefetches off-pattern: %d/%d", ahead, len(*got))
	}
}

func TestCrossPageGHRBootstrap(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	// A +1 stream crossing page boundaries: after the GHR records the
	// cross-page path, the first access of a new page should already
	// trigger lookahead.
	line := mem.Line(0)
	for i := 0; i < 3*pageLines; i++ {
		p.Train(prefetch.Event{Line: line, IP: 0x404})
		line++
	}
	n := len(*got)
	if n == 0 {
		t.Fatal("no prefetches on cross-page stream")
	}
}

func TestTSSkipsFirstKDeltas(t *testing.T) {
	mk := func(k int) map[mem.Line]bool {
		got, issue := capture()
		p := New(issue)
		p.Distance.Set(k)
		line := mem.Line(0)
		for i := 0; i < 200; i++ {
			p.Train(prefetch.Event{Line: line, IP: 0x408})
			line++
		}
		set := map[mem.Line]bool{}
		for _, l := range *got {
			set[l] = true
		}
		return set
	}
	base := mk(0)
	skipped := mk(3)
	if len(base) == 0 || len(skipped) == 0 {
		t.Fatal("no prefetches")
	}
	// With k=3 the near-in-path candidates must disappear.
	nearBase, nearSkipped := 0, 0
	for l := range base {
		if l < 50 {
			nearBase++
		}
	}
	for l := range skipped {
		if l < 50 {
			nearSkipped++
		}
	}
	if nearSkipped >= nearBase {
		t.Errorf("delta skipping did not trim near prefetches: %d vs %d", nearSkipped, nearBase)
	}
}

func TestPPFLearnsToRejectUseless(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	// Phase 1: a predictable stream issues prefetches that never get
	// used (no HitPrefetched feedback) — negative training via aging.
	line := mem.Line(0)
	for i := 0; i < 3000; i++ {
		p.Train(prefetch.Event{Line: line, IP: 0x40c, Hit: true})
		line++
	}
	early := len(*got)
	if early == 0 {
		t.Skip("pattern did not trigger (nothing to reject)")
	}
	*got = (*got)[:0]
	for i := 0; i < 3000; i++ {
		p.Train(prefetch.Event{Line: line, IP: 0x40c, Hit: true})
		line++
	}
	lateCount := len(*got)
	if lateCount > early {
		t.Errorf("PPF did not throttle useless prefetches: %d then %d", early, lateCount)
	}
}
