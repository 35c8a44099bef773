package cache

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/probe"
)

func TestHitLatencyExact(t *testing.T) {
	next := &mockNext{}
	c := New(tinyConfig(), next)
	now := runTicks(c, 0, 0)
	c.Enqueue(loadReq(lineInSet(0, 0), nil))
	now = runTicks(c, now, 10)
	// Timed hit: enqueue right before a tick; the pop happens on the
	// next tick and the response cfg.Latency cycles later.
	var doneAt mem.Cycle
	r := &mem.Request{Line: lineInSet(0, 0), Kind: mem.KindLoad}
	r.Owner = mem.CompleterFunc(func(*mem.Request) { doneAt = 1 })
	c.Enqueue(r)
	start := now
	for doneAt == 0 {
		now = runTicks(c, now, 1)
		if now > start+20 {
			t.Fatal("hit never completed")
		}
	}
	lat := now - start
	want := tinyConfig().Latency + 1 // +1: the pop tick itself
	if lat != want {
		t.Errorf("hit latency %d, want %d", lat, want)
	}
}

func TestMSHRFullHeadBlocksReads(t *testing.T) {
	next := &mockNext{noRespond: true}
	cfg := tinyConfig()
	cfg.MSHRs = 2
	c := New(cfg, next)
	for i := uint64(0); i < 3; i++ {
		c.Enqueue(loadReq(lineInSet(i, 0), nil))
	}
	runTicks(c, 0, 10)
	// Two MSHRs taken; the third read must still be queued, not lost.
	if got := len(next.reads); got != 2 {
		t.Fatalf("%d fetches with 2 MSHRs", got)
	}
	if c.MSHRFree() != 0 {
		t.Errorf("MSHRFree = %d", c.MSHRFree())
	}
	if c.Stats.MSHRFullCycles == 0 {
		t.Error("MSHR-full cycles not recorded")
	}
	// Complete one; the blocked read must proceed.
	next.reads[0].ServedBy = mem.LvlDRAM
	next.reads[0].Complete()
	runTicks(c, 10, 10)
	if got := len(next.reads); got != 3 {
		t.Errorf("blocked read never issued (%d fetches)", got)
	}
}

func TestRFOFillMarksDirty(t *testing.T) {
	next := &mockNext{}
	c := New(tinyConfig(), next)
	now := mem.Cycle(0)
	target := lineInSet(4, 0)
	c.Enqueue(&mem.Request{Line: target, Kind: mem.KindRFO})
	now = runTicks(c, now, 10)
	// Evicting the line must produce a dirty writeback.
	c.Enqueue(loadReq(lineInSet(4, 1), nil))
	now = runTicks(c, now, 10)
	c.Enqueue(loadReq(lineInSet(4, 2), nil))
	runTicks(c, now, 10)
	if len(next.writes) != 1 || !next.writes[0].Dirty {
		t.Fatalf("RFO-filled line did not write back dirty: %v", next.writes)
	}
}

// eventFunc adapts a function to probe.Observer.
type eventFunc func(probe.Event)

func (f eventFunc) Event(ev probe.Event) { f(ev) }

// TestOnEvictHook checks the cache's eviction events: filling a third
// line into a two-way set evicts the least recently used one, once.
func TestOnEvictHook(t *testing.T) {
	next := &mockNext{}
	c := New(tinyConfig(), next)
	var evicted []mem.Line
	c.Obs = eventFunc(func(ev probe.Event) {
		if ev.Kind == probe.EvEvict {
			evicted = append(evicted, ev.Line)
		}
	})
	now := mem.Cycle(0)
	for i := uint64(0); i < 3; i++ {
		c.Enqueue(loadReq(lineInSet(5, i), nil))
		now = runTicks(c, now, 10)
	}
	if len(evicted) != 1 || evicted[0] != lineInSet(5, 0) {
		t.Errorf("evictions = %v", evicted)
	}
}

func TestPrefetchDemotionOnMSHRFull(t *testing.T) {
	next := &mockNext{noRespond: true}
	cfg := tinyConfig()
	cfg.MSHRs = 1
	c := New(cfg, next)
	c.Enqueue(loadReq(lineInSet(6, 0), nil)) // occupies the only MSHR
	now := runTicks(c, 0, 4)
	c.Prefetch(lineInSet(6, 1), 0x400, mem.LvlL1D, now)
	runTicks(c, now, 4)
	// The prefetch could not get an MSHR: it must have been demoted to
	// the next level (FillLevel raised), not silently dropped.
	foundDemoted := false
	for _, r := range next.reads {
		if r.Kind == mem.KindPrefetch && r.FillLevel == mem.LvlL2 {
			foundDemoted = true
		}
	}
	if !foundDemoted {
		t.Error("prefetch was not demoted to the next level under MSHR pressure")
	}
}

func TestTotalPortsLimitsThroughput(t *testing.T) {
	next := &mockNext{}
	cfg := tinyConfig()
	cfg.TotalPorts = 1
	cfg.MaxReads, cfg.MaxWrites = 4, 4
	c := New(cfg, next)
	now := mem.Cycle(0)
	// Warm two lines.
	for i := uint64(0); i < 2; i++ {
		c.Enqueue(loadReq(lineInSet(0, i), nil))
		now = runTicks(c, now, 10)
	}
	// Enqueue 4 hits in the same cycle: with one port, they finish on
	// four consecutive cycles.
	var doneTimes []mem.Cycle
	for i := 0; i < 4; i++ {
		r := &mem.Request{Line: lineInSet(0, uint64(i%2)), Kind: mem.KindLoad}
		r.Owner = mem.CompleterFunc(func(*mem.Request) { doneTimes = append(doneTimes, c.now) })
		c.Enqueue(r)
	}
	runTicks(c, now, 20)
	if len(doneTimes) != 4 {
		t.Fatalf("%d completions", len(doneTimes))
	}
	for i := 1; i < 4; i++ {
		if doneTimes[i] == doneTimes[i-1] {
			t.Errorf("two hits served in the same cycle with TotalPorts=1: %v", doneTimes)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	if L1DConfig().Lines() != 768 {
		t.Errorf("L1D lines = %d, want 768 (the SUF writeback-bit count)", L1DConfig().Lines())
	}
	if L1DConfig().Sets() != 64 {
		t.Errorf("L1D sets = %d", L1DConfig().Sets())
	}
	if L2Config().Lines() != 8192 || LLCConfig(1).Lines() != 32768 {
		t.Error("L2/LLC geometry wrong")
	}
	if LLCConfig(4).SizeKiB != 4*2048 {
		t.Error("multi-core LLC should scale per core")
	}
}
