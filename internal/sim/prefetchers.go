package sim

import (
	"slices"

	"secpref/internal/mem"
	"secpref/internal/prefetch"
	"secpref/internal/prefetch/berti"
	"secpref/internal/prefetch/bingo"
	"secpref/internal/prefetch/ipcp"
	"secpref/internal/prefetch/ipstride"
	"secpref/internal/prefetch/spp"
)

// PrefetcherSpec is one row of Prefetchers.
type PrefetcherSpec struct {
	Name string
	// Home is the cache level the prefetcher trains at and issues from.
	Home mem.Level
	// New builds the prefetcher around issue and returns the distance
	// the timely-secure mode tunes, or nil for Berti, which times
	// itself.
	New func(issue prefetch.Issuer) (prefetch.Prefetcher, *prefetch.Distance)
}

// Prefetchers is the table of the five evaluated prefetchers, in the
// paper's plot order. Config.Prefetcher names one of them.
var Prefetchers = []PrefetcherSpec{
	{"ip-stride", mem.LvlL1D, func(issue prefetch.Issuer) (prefetch.Prefetcher, *prefetch.Distance) {
		p := ipstride.New(issue)
		return p, &p.Distance
	}},
	{"ipcp", mem.LvlL1D, func(issue prefetch.Issuer) (prefetch.Prefetcher, *prefetch.Distance) {
		p := ipcp.New(issue)
		return p, &p.Distance
	}},
	{"bingo", mem.LvlL2, func(issue prefetch.Issuer) (prefetch.Prefetcher, *prefetch.Distance) {
		p := bingo.New(issue)
		return p, &p.Distance
	}},
	{"spp-ppf", mem.LvlL2, func(issue prefetch.Issuer) (prefetch.Prefetcher, *prefetch.Distance) {
		p := spp.New(issue)
		return p, &p.Distance
	}},
	{"berti", mem.LvlL1D, func(issue prefetch.Issuer) (prefetch.Prefetcher, *prefetch.Distance) {
		return berti.New(issue), nil
	}},
}

// PrefetcherNames returns the names of Prefetchers, in its order.
func PrefetcherNames() []string {
	names := make([]string, len(Prefetchers))
	for i, p := range Prefetchers {
		names[i] = p.Name
	}
	return names
}

// HomeOf returns the cache level the named prefetcher lives at. No
// prefetcher, and a name not in Prefetchers, live at the L1D.
func HomeOf(name string) mem.Level {
	if i := specIndex(name); i >= 0 {
		return Prefetchers[i].Home
	}
	return mem.LvlL1D
}

// specIndex returns the index of the named row of Prefetchers, or -1.
func specIndex(name string) int {
	return slices.IndexFunc(Prefetchers, func(p PrefetcherSpec) bool { return p.Name == name })
}
