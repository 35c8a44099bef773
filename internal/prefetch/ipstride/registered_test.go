package ipstride_test

import (
	"slices"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch/ipstride"
	"secpref/internal/sim"
)

// TestRegistered: the simulator's ip-stride row builds this package's
// prefetcher at the L1D with Table III's 8 KB budget, and hands back the
// prefetcher's own distance, the one the lateness monitor adjusts.
func TestRegistered(t *testing.T) {
	i := slices.IndexFunc(sim.Prefetchers, func(s sim.PrefetcherSpec) bool { return s.Name == "ip-stride" })
	if i < 0 {
		t.Fatal("ip-stride is not in sim.Prefetchers")
	}
	spec := sim.Prefetchers[i]
	if spec.Home != mem.LvlL1D {
		t.Errorf("ip-stride home = %s, want L1D", spec.Home)
	}
	pf, dist := spec.New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
	p, ok := pf.(*ipstride.Prefetcher)
	if !ok {
		t.Fatalf("ip-stride row builds %T", pf)
	}
	if dist != &p.Distance {
		t.Error("ip-stride row hands back a distance other than the prefetcher's own")
	}
	if pf.StorageBytes() != 8*1024 {
		t.Errorf("storage = %d, want 8 KB (Table III)", pf.StorageBytes())
	}
}
