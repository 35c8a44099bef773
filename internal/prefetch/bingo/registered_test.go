package bingo_test

import (
	"slices"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch/bingo"
	"secpref/internal/sim"
)

// TestRegistered: the simulator's bingo row builds this package's
// prefetcher at the L2 with Table III's 124 KB budget, and hands back the
// prefetcher's own distance, the one the lateness monitor adjusts.
func TestRegistered(t *testing.T) {
	i := slices.IndexFunc(sim.Prefetchers, func(s sim.PrefetcherSpec) bool { return s.Name == "bingo" })
	if i < 0 {
		t.Fatal("bingo is not in sim.Prefetchers")
	}
	spec := sim.Prefetchers[i]
	if spec.Home != mem.LvlL2 {
		t.Errorf("bingo home = %s, want L2", spec.Home)
	}
	pf, dist := spec.New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
	p, ok := pf.(*bingo.Prefetcher)
	if !ok {
		t.Fatalf("bingo row builds %T", pf)
	}
	if dist != &p.Distance {
		t.Error("bingo row hands back a distance other than the prefetcher's own")
	}
	if kb := pf.StorageBytes() / 1024; kb != 124 {
		t.Errorf("storage %d KB, want 124 KB (Table III)", kb)
	}
}
