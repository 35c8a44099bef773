package sim

import (
	"strings"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// TestPrefetcherTable checks each row against the paper's Table III
// (home level and storage budget), that every prefetcher but the
// self-timing Berti hands back its distance at the base, and that a
// name outside the table lives at the L1D and fails to build.
func TestPrefetcherTable(t *testing.T) {
	want := []struct {
		name         string
		home         mem.Level
		minKB, maxKB float64
		tunable      bool
	}{
		{"ip-stride", mem.LvlL1D, 8, 8, true},
		{"ipcp", mem.LvlL1D, 0.8, 1.0, true},
		{"bingo", mem.LvlL2, 124, 124, true},
		{"spp-ppf", mem.LvlL2, 38, 41, true},
		{"berti", mem.LvlL1D, 2.5, 2.6, false},
	}
	if len(Prefetchers) != len(want) {
		t.Fatalf("table has %d rows, want the paper's %d", len(Prefetchers), len(want))
	}
	for i, w := range want {
		spec := Prefetchers[i]
		if spec.Name != w.name || spec.Home != w.home || HomeOf(w.name) != w.home {
			t.Errorf("row %d = %s at %s (HomeOf %s), want %s at %s", i, spec.Name, spec.Home, HomeOf(w.name), w.name, w.home)
		}
		pf, dist := spec.New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
		if kb := float64(pf.StorageBytes()) / 1024; kb < w.minKB || kb > w.maxKB {
			t.Errorf("%s: storage %.2f KB, want %.2f-%.2f KB", w.name, kb, w.minKB, w.maxKB)
		}
		if (dist != nil) != w.tunable {
			t.Errorf("%s: distance %v, want one: %v", w.name, dist, w.tunable)
		} else if dist != nil && (dist.Cur != dist.Base || dist.Base >= dist.Max || dist.Lateness <= 0) {
			t.Errorf("%s: distance %+v", w.name, *dist)
		}
	}
	for _, name := range []string{"", "none", "no-such-prefetcher"} {
		if got := HomeOf(name); got != mem.LvlL1D {
			t.Errorf("HomeOf(%q) = %s, want L1D", name, got)
		}
	}
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Prefetcher = "no-such-prefetcher"
	if _, err := NewMachine(cfg, trace.NewSource(tr)); err == nil || !strings.Contains(err.Error(), "no-such-prefetcher") {
		t.Errorf("unknown prefetcher: err = %v", err)
	}
}
