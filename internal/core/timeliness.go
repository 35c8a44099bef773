package core

import (
	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

// LatenessMonitor implements the paper's §V-D adaptive-distance
// mechanism for non-self-timing prefetchers (IP-stride, IPCP, Bingo,
// SPP+PPF): prefetch lateness — the ratio of late prefetches to useful
// prefetches — is sampled every interval misses (512 for L1D
// prefetchers, the L1D size in lines; 4096 for L2 prefetchers, half the
// L2 size). If lateness rises for two consecutive intervals, the
// prefetch distance is incremented; single-interval decisions were
// found too noisy. A phase change resets the distance to the base.
type LatenessMonitor struct {
	dist     *prefetch.Distance
	interval uint64

	// source returns cumulative (late, useful) prefetch counts at the
	// home level; the monitor differences them per interval.
	source func() (late, useful uint64)

	misses     uint64
	baseLate   uint64
	baseUseful uint64
	prevRatio  float64
	prevRising bool
	havePrev   bool
	phase      PhaseDetector

	// Adaptations and Resets count distance increments and
	// phase-change resets.
	Adaptations uint64
	Resets      uint64
}

// IntervalFor returns the monitoring interval for a prefetcher's home
// level: 512 misses at L1D (L1D size in lines), 4096 at L2 (half the
// L2's lines).
func IntervalFor(home mem.Level) uint64 {
	if home == mem.LvlL2 {
		return 4096
	}
	return 512
}

// NewLatenessMonitor wires a monitor to a prefetcher's distance, which
// it raises above dist.Lateness. interval is the monitoring interval in
// misses (IntervalFor gives the paper's). source reports cumulative
// (late, useful) prefetch counts at the home level (typically the home
// cache's PrefLate / PrefUseful counters).
func NewLatenessMonitor(dist *prefetch.Distance, interval uint64, source func() (late, useful uint64)) *LatenessMonitor {
	return &LatenessMonitor{dist: dist, interval: interval, source: source}
}

// OnMiss advances the interval counter; the caller invokes it on every
// demand miss at the prefetcher's home level, supplying the IP for
// phase detection.
func (m *LatenessMonitor) OnMiss(ip mem.Addr) {
	if m.phase.Observe(ip) {
		m.dist.Cur = m.dist.Base
		m.Resets++
		m.misses = 0
		m.baseLate, m.baseUseful = m.source()
		m.havePrev = false
		return
	}
	m.misses++
	if m.misses >= m.interval {
		m.endInterval()
	}
}

// Rebase resets the interval baseline against the (possibly zeroed)
// stats source; the simulator calls it after the warmup stats reset.
func (m *LatenessMonitor) Rebase() {
	m.baseLate, m.baseUseful = m.source()
	m.misses = 0
	m.havePrev = false
	m.prevRising = false
}

func (m *LatenessMonitor) endInterval() {
	late, useful := m.source()
	dl, du := late-m.baseLate, useful-m.baseUseful
	m.baseLate, m.baseUseful = late, useful
	ratio := 0.0
	if du > 0 {
		ratio = float64(dl) / float64(du)
	} else if dl > 0 {
		ratio = 1
	}
	rising := m.havePrev && ratio > m.prevRatio && ratio > m.dist.Lateness
	if rising && m.prevRising {
		// Two consecutive rising intervals above threshold: reach
		// further ahead.
		m.dist.Set(m.dist.Cur + 1)
		m.Adaptations++
		rising = false // restart the hysteresis
	}
	m.prevRising = rising
	m.prevRatio = ratio
	m.havePrev = true
	m.misses = 0
}

// PhaseDetector detects application phase changes from the miss-PC
// working set, after Kalani & Panda [26]: the PCs seen in the current
// window are summarized in a small signature; if the overlap with the
// previous window's signature falls below half, the phase changed.
type PhaseDetector struct {
	window  uint64
	count   uint64
	cur     uint64 // 64-bit PC-set signature (Bloom-style)
	prev    uint64
	hasPrev bool
}

const phaseWindow = 2048

// Observe folds a miss PC into the current window signature and
// reports whether a phase change was just detected (at window ends).
func (d *PhaseDetector) Observe(ip mem.Addr) bool {
	h := (uint64(ip) >> 2) * 0x9e3779b97f4a7c15
	d.cur |= 1 << (h >> 58)
	d.count++
	w := d.window
	if w == 0 {
		w = phaseWindow
	}
	if d.count < w {
		return false
	}
	changed := false
	if d.hasPrev {
		inter := popcount64(d.cur & d.prev)
		union := popcount64(d.cur | d.prev)
		changed = union > 0 && inter*2 < union
	}
	d.prev = d.cur
	d.cur = 0
	d.count = 0
	d.hasPrev = true
	return changed
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
