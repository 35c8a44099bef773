package spp_test

import (
	"slices"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch/spp"
	"secpref/internal/sim"
)

// TestRegistered: the simulator's spp-ppf row builds this package's
// prefetcher at the L2 with Table III's ~39.2 KB budget, and hands back the
// prefetcher's own distance, the one the lateness monitor adjusts.
func TestRegistered(t *testing.T) {
	i := slices.IndexFunc(sim.Prefetchers, func(s sim.PrefetcherSpec) bool { return s.Name == "spp-ppf" })
	if i < 0 {
		t.Fatal("spp-ppf is not in sim.Prefetchers")
	}
	spec := sim.Prefetchers[i]
	if spec.Home != mem.LvlL2 {
		t.Errorf("spp-ppf home = %s, want L2", spec.Home)
	}
	pf, dist := spec.New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
	p, ok := pf.(*spp.Prefetcher)
	if !ok {
		t.Fatalf("spp-ppf row builds %T", pf)
	}
	if dist != &p.Distance {
		t.Error("spp-ppf row hands back a distance other than the prefetcher's own")
	}
	if kb := float64(pf.StorageBytes()) / 1024; kb < 38 || kb > 41 {
		t.Errorf("storage %.1f KB, want ~39.2 KB (Table III)", kb)
	}
}
