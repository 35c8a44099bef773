// Package spp implements SPP+PPF: the Signature Path Prefetcher with
// the Perceptron-based Prefetch Filter (Bhatia et al., ISCA 2019),
// configured per the paper's Table III: 256-entry signature table,
// 512-entry 4-way pattern table, 8-entry global history register, and
// perceptron weight tables of 4096x4, 2048x2, 1024x2 and 128x1 entries
// (~39.2 KB). SPP+PPF is an L2 prefetcher.
//
// SPP compresses the per-page delta history into a 12-bit signature
// that indexes a pattern table of delta candidates with confidence
// counters; prefetching walks the signature path recursively,
// multiplying path confidence, until it falls below a threshold. PPF
// vets every candidate with a hashed perceptron over features of the
// path; its weights train on demand hits to prefetched lines
// (positive), unused aging (negative), and demand misses to rejected
// lines (false-reject recovery).
//
// The timely-secure variant (TS-SPP+PPF, §V-D) keeps learning on
// committed requests but skips the first k deltas of the signature
// path before issuing, with k in [2,5] driven by measured prefetch
// lateness; Distance holds k.
package spp

import (
	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

const (
	pageLines = 64 // 4 KB pages

	stSize   = 256
	ptSets   = 512
	ptWays   = 4
	ghrSize  = 8
	sigBits  = 12
	sigMask  = (1 << sigBits) - 1
	countMax = 15

	// Lookahead control.
	confThreshold = 25  // percent; stop the path below this
	fillThreshold = 60  // percent; above this fill L2, else LLC
	maxLookahead  = 8   // candidates per trigger
	perceptronTau = -12 // PPF accept threshold

	baseDistance = 0 // deltas skipped before issuing (TS knob)
	maxDistance  = 5

	feedbackCap = 1024
)

// The unsigned % (or mask) indexing over this table is a shift-and-
// mask only while the size stays a power of two; this compile-time
// assert (negative array length otherwise) pins that.
type _ [1 - 2*(stSize&(stSize-1))]byte

type stEntry struct {
	valid   bool
	tag     uint16
	sig     uint16
	lastOff int8
	lru     uint32
}

type ptLine struct {
	delta int8
	count uint8
}

type ptEntry struct {
	total uint8
	ways  [ptWays]ptLine
}

type ghrEntry struct {
	valid   bool
	sig     uint16
	conf    int
	lastOff int8
	delta   int8
}

// Prefetcher is the SPP+PPF engine.
type Prefetcher struct {
	st    [stSize]stEntry
	pt    [ptSets]ptEntry
	ghr   [ghrSize]ghrEntry
	clock uint32

	filter ppf
	issue  prefetch.Issuer
	// Distance is the number of path deltas skipped before issuing (k
	// in §V-D).
	Distance prefetch.Distance
}

// New builds an SPP+PPF prefetcher.
func New(issue prefetch.Issuer) *Prefetcher {
	return &Prefetcher{issue: issue, Distance: prefetch.NewDistance(baseDistance, maxDistance, prefetch.DefaultLateness)}
}

// StorageBytes implements prefetch.Prefetcher (Table III: 39.2 KB).
func (p *Prefetcher) StorageBytes() int { return 40140 }

func pageOf(l mem.Line) uint64 { return uint64(l) / pageLines }
func offOf(l mem.Line) int8    { return int8(uint64(l) % pageLines) }

func sigUpdate(sig uint16, delta int8) uint16 {
	return (sig<<3 ^ uint16(uint8(delta))) & sigMask
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) {
	p.clock++
	page := pageOf(ev.Line)
	off := offOf(ev.Line)

	p.filter.feedback(ev, &p.pt)

	e := p.findST(page)
	if e == nil {
		e = p.allocST(page)
		// Bootstrap from the GHR if a cross-page path predicted this
		// page's first access.
		if g := p.ghrMatch(off); g != nil {
			e.sig = sigUpdate(g.sig, g.delta)
			e.lastOff = off
			e.lru = p.clock
			p.lookahead(ev, page, off, e.sig, 100)
			return
		}
		e.sig = 0
		e.lastOff = off
		e.lru = p.clock
		return
	}
	delta := off - e.lastOff
	e.lru = p.clock
	if delta == 0 {
		return
	}
	p.ptUpdate(e.sig, delta)
	e.sig = sigUpdate(e.sig, delta)
	e.lastOff = off
	p.lookahead(ev, page, off, e.sig, 100)
}

// lookahead walks the signature path issuing vetted candidates.
func (p *Prefetcher) lookahead(ev prefetch.Event, page uint64, off int8, sig uint16, conf int) {
	curOff := int(off)
	depth := 0
	issued := 0
	for issued < maxLookahead {
		d, c, total := p.ptBest(sig)
		if total == 0 || c == 0 {
			return
		}
		conf = conf * int(c) / int(total)
		if conf < confThreshold {
			return
		}
		curOff += int(d)
		depth++
		if curOff < 0 || curOff >= pageLines {
			// Page boundary: record in the GHR so the next page can
			// continue the path (SPP's cross-page mechanism).
			p.ghrInsert(ghrEntry{valid: true, sig: sig, conf: conf, lastOff: off, delta: d})
			return
		}
		sig = sigUpdate(sig, d)
		if depth <= p.Distance.Cur {
			continue // TS-SPP: skip the first k path steps
		}
		line := mem.Line(page*pageLines + uint64(curOff))
		if !p.filter.accept(ev, sig, d, int8(curOff), conf, depth) {
			continue
		}
		fill := mem.LvlL2
		if conf < fillThreshold {
			fill = mem.LvlLLC
		}
		p.issue(line, ev.IP, fill)
		p.filter.recordIssued(line)
		issued++
	}
}

func (p *Prefetcher) ptUpdate(sig uint16, delta int8) {
	e := &p.pt[sig%ptSets]
	if e.total >= countMax*ptWays {
		// Periodic decay keeps confidences adaptive.
		for i := range e.ways {
			e.ways[i].count /= 2
		}
		e.total /= 2
	}
	e.total++
	for i := range e.ways {
		if e.ways[i].count > 0 && e.ways[i].delta == delta {
			if e.ways[i].count < countMax {
				e.ways[i].count++
			}
			return
		}
	}
	// Replace the smallest way.
	mi := 0
	for i := range e.ways {
		if e.ways[i].count < e.ways[mi].count {
			mi = i
		}
	}
	e.ways[mi] = ptLine{delta: delta, count: 1}
}

// ptBest returns the strongest delta for sig with its count and total.
func (p *Prefetcher) ptBest(sig uint16) (delta int8, count, total uint8) {
	e := &p.pt[sig%ptSets]
	bi := -1
	for i := range e.ways {
		if e.ways[i].count > 0 && (bi < 0 || e.ways[i].count > e.ways[bi].count) {
			bi = i
		}
	}
	if bi < 0 {
		return 0, 0, 0
	}
	return e.ways[bi].delta, e.ways[bi].count, e.total
}

func (p *Prefetcher) findST(page uint64) *stEntry {
	idx := int(page % stSize)
	tag := uint16(page >> 8)
	e := &p.st[idx]
	if e.valid && e.tag == tag {
		return e
	}
	return nil
}

func (p *Prefetcher) allocST(page uint64) *stEntry {
	idx := int(page % stSize)
	e := &p.st[idx]
	*e = stEntry{valid: true, tag: uint16(page >> 8)}
	return e
}

func (p *Prefetcher) ghrInsert(g ghrEntry) {
	// Replace the lowest-confidence slot.
	mi := 0
	for i := range p.ghr {
		if !p.ghr[i].valid {
			mi = i
			break
		}
		if p.ghr[i].conf < p.ghr[mi].conf {
			mi = i
		}
	}
	p.ghr[mi] = g
}

// ghrMatch finds a GHR entry whose cross-page path lands on off.
func (p *Prefetcher) ghrMatch(off int8) *ghrEntry {
	for i := range p.ghr {
		g := &p.ghr[i]
		if !g.valid {
			continue
		}
		landing := (int(g.lastOff) + int(g.delta)) & (pageLines - 1)
		if int8(landing) == off {
			return g
		}
	}
	return nil
}
