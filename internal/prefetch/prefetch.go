// Package prefetch defines the hardware-prefetcher framework: the
// training-event model, the issue interface, and registration of the
// five prefetchers evaluated by the paper (IP-stride, IPCP, Bingo,
// SPP+PPF, Berti) plus their timely-secure variants.
//
// A prefetcher does not know whether it is being trained on-access or
// on-commit: the simulator decides which event stream (speculative
// accesses vs. committed loads) feeds Train. This mirrors the paper's
// framing, where the same predictor is moved between pipeline stages.
package prefetch

import (
	"fmt"
	"sort"
	"sync"

	"secpref/internal/mem"
)

// Event is one training observation at the prefetcher's home level.
type Event struct {
	Line mem.Line
	IP   mem.Addr
	// Hit reports whether the access hit at the home level.
	Hit bool
	// HitPrefetched marks a demand hit on a prefetched line;
	// PrefFetchLat is the recorded fill latency of that line (stored
	// alongside the L1D line, as Berti requires).
	HitPrefetched bool
	PrefFetchLat  mem.Cycle
	// Cycle is the training time. For on-commit training of TSB this is
	// the commit cycle, while AccessCycle preserves the original access
	// time and FetchLat the measured fetch latency to the GM (the X-LQ
	// contents). For plain on-access training AccessCycle == Cycle.
	Cycle       mem.Cycle
	AccessCycle mem.Cycle
	FetchLat    mem.Cycle
}

// Issuer sends a prefetch request for line into the hierarchy, filling
// at fill (home level or deeper). It returns false when the prefetch
// was rejected (queue full) — prefetchers may retry or drop.
type Issuer func(line mem.Line, ip mem.Addr, fill mem.Level) bool

// Prefetcher is the common interface of all modeled prefetchers.
type Prefetcher interface {
	// Name identifies the prefetcher ("berti", "ipcp", ...).
	Name() string
	// Home is the cache level the prefetcher trains at and issues from:
	// L1D for IP-stride, IPCP, and Berti; L2 for Bingo and SPP+PPF.
	Home() mem.Level
	// Train observes one demand access (or committed load).
	Train(ev Event)
	// StorageBytes reports the hardware budget (Table III).
	StorageBytes() int
}

// DistanceTunable is implemented by prefetchers whose lookahead
// distance the timely-secure machinery can adjust (IP-stride, IPCP,
// Bingo, SPP+PPF — §V-D).
type DistanceTunable interface {
	Prefetcher
	// Distance returns the current prefetch distance.
	Distance() int
	// SetDistance sets it, clamped to [base, max].
	SetDistance(d int)
	// BaseDistance and MaxDistance bound the adaptation.
	BaseDistance() int
	MaxDistance() int
}

// Factory builds a prefetcher bound to an issuer.
type Factory func(issue Issuer) Prefetcher

var factories = map[string]Factory{}

// Register installs a prefetcher factory under name. Prefetcher
// packages call it from init.
func Register(name string, f Factory) {
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("prefetch: duplicate registration of %q", name))
	}
	factories[name] = f
}

// New builds the named prefetcher, or an error listing known names.
func New(name string, issue Issuer) (Prefetcher, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (known: %v)", name, Names())
	}
	return f(issue), nil
}

var (
	homesMu sync.Mutex
	homes   = map[string]mem.Level{}
)

// HomeOf returns the cache level the named prefetcher lives at, as its
// Home reports it; "none" and unregistered names live at the L1D, as
// None does. The first call for a name builds one instance of it.
func HomeOf(name string) mem.Level {
	homesMu.Lock()
	defer homesMu.Unlock()
	home, ok := homes[name]
	if !ok {
		home = None{}.Home()
		if p, err := New(name, func(mem.Line, mem.Addr, mem.Level) bool { return false }); err == nil {
			home = p.Home()
		}
		homes[name] = home
	}
	return home
}

// Names returns the registered prefetcher names, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// None is the no-prefetching placeholder.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// Home implements Prefetcher.
func (None) Home() mem.Level { return mem.LvlL1D }

// Train implements Prefetcher.
func (None) Train(Event) {}

// StorageBytes implements Prefetcher.
func (None) StorageBytes() int { return 0 }
