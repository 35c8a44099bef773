package ipcp_test

import (
	"slices"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch/ipcp"
	"secpref/internal/sim"
)

// TestRegistered: the simulator's ipcp row builds this package's
// prefetcher at the L1D with Table III's ~0.87 KB budget, and hands back the
// prefetcher's own distance, the one the lateness monitor adjusts.
func TestRegistered(t *testing.T) {
	i := slices.IndexFunc(sim.Prefetchers, func(s sim.PrefetcherSpec) bool { return s.Name == "ipcp" })
	if i < 0 {
		t.Fatal("ipcp is not in sim.Prefetchers")
	}
	spec := sim.Prefetchers[i]
	if spec.Home != mem.LvlL1D {
		t.Errorf("ipcp home = %s, want L1D", spec.Home)
	}
	pf, dist := spec.New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
	p, ok := pf.(*ipcp.Prefetcher)
	if !ok {
		t.Fatalf("ipcp row builds %T", pf)
	}
	if dist != &p.Distance {
		t.Error("ipcp row hands back a distance other than the prefetcher's own")
	}
	if kb := float64(pf.StorageBytes()) / 1024; kb < 0.8 || kb > 1.0 {
		t.Errorf("storage %.2f KB, want ~0.87 KB (Table III)", kb)
	}
}
