// Package prefetch defines the hardware-prefetcher framework: the
// training-event model, the issue interface, the lookahead distance the
// timely-secure variants tune, and the Fig. 6 shadow classifier. The
// five prefetchers the paper evaluates (IP-stride, IPCP, Bingo,
// SPP+PPF, Berti) live in the subpackages; the simulator's table
// (sim.Prefetchers) names each and records the cache level it lives at.
//
// A prefetcher does not know whether it is being trained on-access or
// on-commit: the simulator decides which event stream (speculative
// accesses vs. committed loads) feeds Train. This mirrors the paper's
// framing, where the same predictor is moved between pipeline stages.
package prefetch

import "secpref/internal/mem"

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
	// Train observes one demand access (or committed load).
	Train(ev Event)
	// StorageBytes reports the hardware budget (Table III).
	StorageBytes() int
}

// DefaultLateness is the paper's lateness threshold (§V-D) for every
// distance-tunable prefetcher but Bingo.
const DefaultLateness = 0.14

// Distance is the lookahead knob of a prefetcher that does not time
// itself (IP-stride, IPCP, Bingo, SPP+PPF): the timely-secure variants
// raise it when prefetches run late (§V-D). Each such prefetcher holds
// one and issues Cur ahead.
type Distance struct {
	// Cur is the current distance, within [Base, Max].
	Cur, Base, Max int
	// Lateness is the late-to-useful prefetch ratio above which rising
	// lateness raises the distance.
	Lateness float64
}

// NewDistance returns a distance at base that rises to at most limit
// when lateness passes the given threshold.
func NewDistance(base, limit int, lateness float64) Distance {
	return Distance{Cur: base, Base: base, Max: limit, Lateness: lateness}
}

// Set sets the current distance to v, clamped to [Base, Max].
func (d *Distance) Set(v int) { d.Cur = min(max(v, d.Base), d.Max) }

// IsNone reports whether name selects no prefetcher: "" and "none"
// both do.
func IsNone(name string) bool { return name == "" || name == "none" }
