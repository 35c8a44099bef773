package prefetch_test

import (
	"sync"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch"
	_ "secpref/internal/prefetch/berti"
	_ "secpref/internal/prefetch/bingo"
	_ "secpref/internal/prefetch/ipcp"
	_ "secpref/internal/prefetch/ipstride"
	_ "secpref/internal/prefetch/spp"
)

// TestHomeOfMatchesHome checks HomeOf against the Home every registered
// prefetcher reports, and that the no-prefetcher names live at the L1D.
// Several goroutines ask at once, as the experiment runner's parallel
// configuration builds do.
func TestHomeOfMatchesHome(t *testing.T) {
	names := prefetch.Names()
	if len(names) < 5 {
		t.Fatalf("registered prefetchers %v, want the five evaluated engines", names)
	}
	want := map[string]mem.Level{"": mem.LvlL1D, "none": mem.LvlL1D, "no-such-prefetcher": mem.LvlL1D}
	for _, name := range names {
		p, err := prefetch.New(name, func(mem.Line, mem.Addr, mem.Level) bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		want[name] = p.Home()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, home := range want {
				if got := prefetch.HomeOf(name); got != home {
					t.Errorf("HomeOf(%q) = %s, want %s", name, got, home)
				}
			}
		}()
	}
	wg.Wait()
}

// TestIsNone: "" and "none" both select no prefetcher; a registered
// name and an unregistered one both name a prefetcher (building the
// unregistered one is what fails).
func TestIsNone(t *testing.T) {
	for name, want := range map[string]bool{"": true, "none": true, "berti": false, "no-such-prefetcher": false} {
		if got := prefetch.IsNone(name); got != want {
			t.Errorf("IsNone(%q) = %v, want %v", name, got, want)
		}
	}
}
