package prefetch_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// TestNames: the simulator's name list is its table's names in the
// paper's plot order, each distinct and none of them a name that
// selects no prefetcher.
func TestNames(t *testing.T) {
	names := sim.PrefetcherNames()
	if want := []string{"ip-stride", "ipcp", "bingo", "spp-ppf", "berti"}; !slices.Equal(names, want) {
		t.Fatalf("PrefetcherNames() = %v, want %v", names, want)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name != sim.Prefetchers[i].Name {
			t.Errorf("name %d = %q, table row %q", i, name, sim.Prefetchers[i].Name)
		}
		if seen[name] || prefetch.IsNone(name) {
			t.Errorf("name %q repeated or selects no prefetcher", name)
		}
		seen[name] = true
	}
}

// TestRegistryUnknown: a name outside the table is a prefetcher name
// (not IsNone) that fails to build, and the error names it and every
// prefetcher that is known.
func TestRegistryUnknown(t *testing.T) {
	const name = "no-such-prefetcher"
	if prefetch.IsNone(name) {
		t.Fatalf("IsNone(%q) = true", name)
	}
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Prefetcher = name
	_, err = sim.NewMachine(cfg, trace.NewSource(tr))
	if err == nil {
		t.Fatal("expected unknown-prefetcher error")
	}
	for _, want := range append([]string{name}, sim.PrefetcherNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestHomeOfMatchesHome checks HomeOf against every table row's home
// level, which must be a level the simulator can host a prefetcher at
// (the L1D or the L2), and that the no-prefetcher names and an unknown
// one live at the L1D. Several goroutines ask at once, as the
// experiment runner's parallel configuration builds do.
func TestHomeOfMatchesHome(t *testing.T) {
	want := map[string]mem.Level{"": mem.LvlL1D, "none": mem.LvlL1D, "no-such-prefetcher": mem.LvlL1D}
	for _, spec := range sim.Prefetchers {
		if spec.Home != mem.LvlL1D && spec.Home != mem.LvlL2 {
			t.Errorf("%s lives at %s, want the L1D or the L2", spec.Name, spec.Home)
		}
		want[spec.Name] = spec.Home
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, home := range want {
				if got := sim.HomeOf(name); got != home {
					t.Errorf("HomeOf(%q) = %s, want %s", name, got, home)
				}
			}
		}()
	}
	wg.Wait()
}
