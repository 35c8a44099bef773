// Empirical leakage estimators for the multi-trial attack harness: an
// exact mutual-information estimate over (secret, inferred) trial
// outcomes, and a mutual-information upper bound over attacker
// probe-latency distributions split by secret relevance.
package leakage

import (
	"cmp"
	"math"
	"slices"
)

// Confusion accumulates (secret, inferred) pairs across prime+probe
// trials; BitsPerTrial is the empirical mutual information of the
// resulting channel — the bits an attacker extracts per trial.
type Confusion struct {
	counts map[[2]int]int
	n      int
}

// NewConfusion returns an empty confusion accumulator.
func NewConfusion() *Confusion {
	return &Confusion{counts: make(map[[2]int]int)}
}

// Add records one trial (inferred may be -1: attacker saw nothing).
func (c *Confusion) Add(secret, inferred int) {
	c.counts[[2]int{secret, inferred}]++
	c.n++
}

// Trials returns the number of recorded trials.
func (c *Confusion) Trials() int { return c.n }

// BitsPerTrial returns the empirical mutual information
// I(secret; inferred) in bits. A perfect 16-way channel yields 4 bits;
// an attacker whose inference is independent of the secret gets 0.
func (c *Confusion) BitsPerTrial() float64 {
	if c.n == 0 {
		return 0
	}
	// Marginals are exact integer counts; the MI terms are summed in
	// sorted (secret, inferred) order, so the estimate does not depend
	// on map iteration order.
	ps := make(map[int]int)
	pi := make(map[int]int)
	cells := make([][2]int, 0, len(c.counts))
	for k, cnt := range c.counts {
		ps[k[0]] += cnt
		pi[k[1]] += cnt
		cells = append(cells, k)
	}
	slices.SortFunc(cells, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	n := float64(c.n)
	var mi float64
	for _, k := range cells {
		pj := float64(c.counts[k]) / n
		pSecret, pInferred := float64(ps[k[0]])/n, float64(pi[k[1]])/n
		mi += pj * math.Log2(pj/(pSecret*pInferred))
	}
	if mi < 0 {
		mi = 0 // guard float noise
	}
	return mi
}

// Latency classes for LatencySplit: the probe of the secret-selected
// slot vs every other probe.
const (
	ClassSecret = 0
	ClassOther  = 1
)

// LatencySplit accumulates attacker probe latencies as two histograms —
// the secret slot's probes vs all others. Separation is the mean gap
// (hit/miss separability); MIBits is the mutual information between
// class and observed latency, an upper bound on what one probe's
// latency reveals about whether its slot was secret-selected.
type LatencySplit struct {
	hist [2]map[uint64]float64
	n    [2]float64
	sum  [2]float64
}

// Add records one probe latency under the given class.
func (l *LatencySplit) Add(class int, lat uint64) {
	if l.hist[class] == nil {
		l.hist[class] = make(map[uint64]float64)
	}
	l.hist[class][lat]++
	l.n[class]++
	l.sum[class] += float64(lat)
}

// Count returns the number of samples recorded for class.
func (l *LatencySplit) Count(class int) int { return int(l.n[class]) }

// Mean returns the mean latency of class (0 with no samples).
func (l *LatencySplit) Mean(class int) float64 {
	if l.n[class] == 0 {
		return 0
	}
	return l.sum[class] / l.n[class]
}

// Separation returns mean(other) - mean(secret): positive when the
// secret slot's probes are faster (cached) than the rest, ~0 when the
// distributions are indistinguishable.
func (l *LatencySplit) Separation() float64 {
	return l.Mean(ClassOther) - l.Mean(ClassSecret)
}

// MIBits returns I(class; latency) in bits over the recorded samples.
// Fully separated distributions yield the class entropy H(class); fully
// overlapping ones yield 0.
func (l *LatencySplit) MIBits() float64 {
	total := l.n[0] + l.n[1]
	if total == 0 {
		return 0
	}
	var mi float64
	for class := 0; class < 2; class++ {
		pc := l.n[class] / total
		// Summed in sorted latency order: the estimate must not depend
		// on map iteration order.
		lats := make([]uint64, 0, len(l.hist[class]))
		for lat := range l.hist[class] {
			lats = append(lats, lat)
		}
		slices.Sort(lats)
		for _, lat := range lats {
			cnt := l.hist[class][lat]
			pj := cnt / total
			pl := (l.hist[0][lat] + l.hist[1][lat]) / total
			mi += pj * math.Log2(pj/(pc*pl))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}
