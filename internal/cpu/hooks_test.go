package cpu

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/probe"
	"secpref/internal/tlb"
	"secpref/internal/trace"
)

// eventFunc adapts a function to probe.Observer.
type eventFunc func(probe.Event)

func (f eventFunc) Event(ev probe.Event) { f(ev) }

// TestOnIssueLoadHook checks the core's issue events: one EvIssue per
// load sent to the memory system, and a distinct LQ id per load at
// commit.
func TestOnIssueLoadHook(t *testing.T) {
	port := &fixedLatencyPort{lat: 3}
	src := seqTrace(20, func(i int) trace.Instr {
		return trace.Instr{IP: mem.Addr(0x400 + 4*i), Load: mem.Addr(0x60000 + 64*i)}
	})
	c := New(DefaultConfig(), src, port, &sinkStore{})
	var issued []mem.Line
	c.Obs = eventFunc(func(ev probe.Event) {
		if ev.Kind == probe.EvIssue {
			issued = append(issued, ev.Line)
		}
	})
	lqIDs := map[int]bool{}
	c.OnCommitLoad = func(ci CommitInfo) bool {
		lqIDs[ci.LQID] = true
		return true
	}
	run(t, c, port, 10000)
	if len(issued) != 20 {
		t.Fatalf("%d issue events, want 20", len(issued))
	}
	if len(lqIDs) != 20 {
		t.Errorf("%d distinct LQ ids for 20 loads", len(lqIDs))
	}
}

func TestTLBDelaysColdLoads(t *testing.T) {
	// Two identical single-load runs; the TLB run must take longer
	// because of page-walk latency on cold pages.
	mk := func(withTLB bool) mem.Cycle {
		port := &fixedLatencyPort{lat: 5}
		src := seqTrace(100, func(i int) trace.Instr {
			// One load per page: every access is a cold translation.
			return trace.Instr{IP: 0x400, Load: mem.Addr(0x100000 + i<<tlb.PageBits), Dep: true}
		})
		c := New(DefaultConfig(), src, port, &sinkStore{})
		if withTLB {
			c.TLB = tlb.New(tlb.DefaultConfig())
		}
		return run(t, c, port, 1000000)
	}
	without := mk(false)
	with := mk(true)
	if with <= without {
		t.Errorf("TLB did not add latency: %d vs %d cycles", with, without)
	}
	// 100 serialized walks at ~69 cycles: expect thousands of extra cycles.
	if with-without < 1000 {
		t.Errorf("TLB cost only %d cycles for 100 cold pages", with-without)
	}
}

func TestTLBHitsAreCheap(t *testing.T) {
	mk := func(withTLB bool) mem.Cycle {
		port := &fixedLatencyPort{lat: 5}
		src := seqTrace(2000, func(i int) trace.Instr {
			// All loads in one page: a single walk, then dTLB hits.
			return trace.Instr{IP: 0x400, Load: mem.Addr(0x200000 + 8*(i%100))}
		})
		c := New(DefaultConfig(), src, port, &sinkStore{})
		if withTLB {
			c.TLB = tlb.New(tlb.DefaultConfig())
		}
		return run(t, c, port, 1000000)
	}
	without := mk(false)
	with := mk(true)
	// One cold walk plus per-load 1-cycle translations: small overhead.
	if float64(with) > float64(without)*1.6 {
		t.Errorf("hot-page TLB overhead too high: %d vs %d cycles", with, without)
	}
}

func TestStoresReachPort(t *testing.T) {
	port := &fixedLatencyPort{lat: 1}
	store := &sinkStore{}
	src := seqTrace(50, func(i int) trace.Instr {
		return trace.Instr{IP: 0x400, Store: mem.Addr(0x70000 + 64*i)}
	})
	c := New(DefaultConfig(), src, port, store)
	run(t, c, port, 10000)
	if store.n != 50 {
		t.Errorf("%d stores reached the port, want 50", store.n)
	}
}
