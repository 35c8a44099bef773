package sim

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/probe"
)

// TestPoolSoakNoLeak drives a memory-bound, prefetch-heavy workload long
// enough for every queue to hit its high-water mark, then keeps going:
// the pool's fresh-allocation counter must plateau. If any component
// leaked requests (the old queue-head reslicing bug) or recycled them
// into the wrong pool, News would track Gets instead of the bounded
// in-flight population.
func TestPoolSoakNoLeak(t *testing.T) {
	poolSoak(t, false)
}

// TestPoolSoakNoLeakProbed repeats the soak with a tracer and interval
// sampler attached: observers are read-only and retain no requests, so
// the pool's steady-state plateau must be unaffected.
func TestPoolSoakNoLeakProbed(t *testing.T) {
	poolSoak(t, true)
}

func poolSoak(t *testing.T, probed bool) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultConfig()
	cfg.MaxInstrs = 50_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure

	m, err := NewMachine(cfg, smokeTrace(t, "bfs-3B", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if probed {
		m.attachObserver(probe.NewTracer(4, 4096))
		m.armWindows(probe.NewIntervalSampler(64), 1000)
	}
	maxCycles := mem.Cycle(1000 * cfg.MaxInstrs)

	// Phase 1: reach steady state.
	if err := m.run(m.Instructions()+10_000, maxCycles, mem.NoEvent); err != nil {
		t.Fatalf("soak phase 1: %v", err)
	}
	newsBefore, getsBefore := m.pool.News, m.pool.Gets
	if getsBefore == 0 {
		t.Fatal("pool never used")
	}

	// Phase 2: four times as much traffic must allocate almost nothing new.
	if err := m.run(m.Instructions()+40_000, maxCycles, mem.NoEvent); err != nil {
		t.Fatalf("soak phase 2: %v", err)
	}
	newsGrowth := m.pool.News - newsBefore
	getsGrowth := m.pool.Gets - getsBefore
	if getsGrowth == 0 {
		t.Fatal("no pool traffic in soak phase")
	}
	// Allow a sliver of late growth (a queue depth not yet visited), but
	// a leak makes News scale with Gets (hundreds of thousands here).
	if newsGrowth*100 > getsGrowth {
		t.Errorf("request pool still allocating in steady state: %d new objects over %d checkouts (warm pool was %d)",
			newsGrowth, getsGrowth, newsBefore)
	}
	if m.pool.News*10 > m.pool.Gets {
		t.Errorf("poor recycling: News=%d vs Gets=%d", m.pool.News, m.pool.Gets)
	}
	t.Logf("pool: Gets=%d News=%d (steady-state growth %d)", m.pool.Gets, m.pool.News, newsGrowth)
}
