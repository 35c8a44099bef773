// Package berti implements the Berti local-delta data prefetcher
// (Navarro-Torres et al., MICRO 2022), configured per the paper's
// Table III: a 128-entry history table and a 16-entry delta table with
// 16 deltas per entry (~2.55 KB). Berti is an L1D prefetcher and is
// self-timing: it learns, per IP, the deltas that would have produced
// *timely* prefetches given the measured fetch latency, and issues the
// highest-coverage deltas, orchestrating the fill level (L1D vs L2) by
// coverage and L1D MSHR occupancy.
//
// The same engine implements all three operating points of the paper:
//
//   - On-access Berti: history records access times; Observe is called
//     at fill time with the true fetch latency.
//   - On-commit Berti (secure, naive): history records commit times;
//     Observe is called at commit with the GM-to-L1D on-commit write
//     latency — the misleading signal §V-B describes, which learns
//     deltas that are timely at commit but late at access.
//   - TSB (Timely Secure Berti, the paper's contribution): history
//     records commit times, but Observe is called at commit with the
//     X-LQ's *access* timestamp and the true fetch latency to the GM,
//     so the learned deltas are timely at access despite commit-time
//     triggering (§V-C).
//
// The caller (the simulator's prefetcher harness) decides which times
// and latencies to supply; the search logic here is shared.
package berti

import (
	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

const (
	historySize = 128
	deltaIPs    = 16
	deltasPerIP = 16

	// Coverage thresholds (fraction of searches a delta was timely in).
	covL1 = 0.60 // fill to L1D
	covL2 = 0.30 // fill to L2

	// roundSize searches per normalization round; counters halve so
	// coverage tracks recent behaviour.
	roundSize = 64

	// mshrReserve: with fewer free L1D MSHRs than this, L1D-destined
	// prefetches are demoted to L2 (Berti's occupancy orchestration).
	// Half the Table II L1D MSHR count: demand misses — which in the
	// secure system include every speculative probe — keep priority.
	mshrReserve = 8

	// maxIssuePerTrigger bounds the deltas issued per training event.
	maxIssuePerTrigger = 4

	// histBuckets is the IP-index fan-out for the history chains. One
	// bucket per slot keeps expected chain length at the per-IP entry
	// count even under full occupancy.
	histBuckets = historySize
)

// The ring mask and bucket mask require power-of-two sizes; these
// compile-time asserts fail (negative array length) if a constant edit
// breaks that.
type (
	_ [1 - 2*(historySize&(historySize-1))]byte
	_ [1 - 2*(histBuckets&(histBuckets-1))]byte
)

// The access history is struct-of-arrays: Observe's timely-delta
// search filters almost every entry out by IP hash alone, so the tag
// column is scanned on its own (1 KiB for the whole history instead of
// a stride over ~4 KB of full records) and the line/timestamp columns
// are read only on tag matches. A tag is the 32-bit IP hash with
// histLive ORed in; never-written slots hold zero, which no live tag
// can equal, so validity costs no separate column or branch.
type history struct {
	tag  [historySize]uint64
	line [historySize]mem.Line
	ts   [historySize]mem.Cycle
}

// histLive marks an occupied history slot; see history.
const histLive = uint64(1) << 32

type deltaEntry struct {
	delta int32
	count uint16
}

type ipDeltas struct {
	valid    bool
	ipHash   uint32
	searches uint16
	deltas   [deltasPerIP]deltaEntry
	lru      uint32
}

// Prefetcher is the Berti/TSB engine.
type Prefetcher struct {
	hist    history
	histPos int
	table   [deltaIPs]ipDeltas
	clock   uint32
	issue   prefetch.Issuer

	// The history index: per-tag bucket chains over the history
	// columns, so Observe's timely-delta search walks only the slots
	// whose tag hashes into the triggering IP's bucket instead of all
	// 128. Doubly linked for O(1) unlink when the ring overwrites a
	// slot. Derived from the columns above — excluded from StateDigest
	// like the other engine memo fields.
	histHead [histBuckets]int16
	histNext [historySize]int16
	histPrev [historySize]int16

	// lastSlot memoizes the delta-table slot of the most recent IP;
	// self-validating against the table entry, so it is also derived
	// state.
	lastSlot int8

	// MSHRFree, if set, reports free L1D MSHR entries for fill-level
	// orchestration.
	MSHRFree func() int

	// TrainCalls, ObserveCalls, and IssueAttempts count engine activity
	// (diagnostics).
	TrainCalls, ObserveCalls, IssueAttempts uint64
}

// New builds a Berti prefetcher.
func New(issue prefetch.Issuer) *Prefetcher {
	p := &Prefetcher{issue: issue}
	for i := range p.histHead {
		p.histHead[i] = -1
	}
	return p
}

// StorageBytes implements prefetch.Prefetcher (Table III: 2.55 KB).
func (p *Prefetcher) StorageBytes() int { return 2611 }

func ipHash(ip mem.Addr) uint32 {
	h := uint64(ip) >> 2
	h *= 0x9e3779b97f4a7c15
	return uint32(h >> 32)
}

// Train implements prefetch.Prefetcher: record the access in the
// history and issue the learned deltas for this IP. ev.Cycle is the
// training time (access time on-access; commit time on-commit/TSB).
func (p *Prefetcher) Train(ev prefetch.Event) {
	p.TrainCalls++
	h := ipHash(ev.IP)
	// Only misses and first-touch prefetch hits train Berti (regular
	// hits neither insert history nor trigger — per the Berti design,
	// they would pollute delta timing).
	if !ev.Hit || ev.HitPrefetched {
		pos := p.histPos
		if p.hist.tag[pos] != 0 {
			p.histUnlink(pos)
		}
		tag := uint64(h) | histLive
		p.hist.tag[pos] = tag
		p.hist.line[pos] = ev.Line
		p.hist.ts[pos] = ev.Cycle
		p.histLink(pos, tag)
		p.histPos = (pos + 1) & (historySize - 1)
	}
	p.issueDeltas(h, ev.Line, ev.IP)
}

func histBucket(tag uint64) int { return int(tag & (histBuckets - 1)) }

func (p *Prefetcher) histLink(i int, tag uint64) {
	b := histBucket(tag)
	head := p.histHead[b]
	p.histNext[i] = head
	p.histPrev[i] = -1
	if head >= 0 {
		p.histPrev[head] = int16(i)
	}
	p.histHead[b] = int16(i)
}

func (p *Prefetcher) histUnlink(i int) {
	prev, next := p.histPrev[i], p.histNext[i]
	if prev >= 0 {
		p.histNext[prev] = next
	} else {
		p.histHead[histBucket(p.hist.tag[i])] = next
	}
	if next >= 0 {
		p.histPrev[next] = prev
	}
}

// Observe performs the timely-delta search: given the current access's
// line, a reference time, and the fetch latency, it finds the *nearest*
// history entry of the same IP old enough that a prefetch triggered
// there would have completed by refTime (ts + latency <= refTime), and
// that entry's delta gets a coverage vote. Taking only the nearest
// timely access — rather than every timely one — is what keeps the
// learned delta minimal and the issue rate at one line per trigger, per
// the Berti design ("searches for the nearest instruction capable of
// triggering a timely prefetch").
func (p *Prefetcher) Observe(ip mem.Addr, line mem.Line, refTime mem.Cycle, latency mem.Cycle) {
	p.ObserveCalls++
	h := ipHash(ip)
	e := p.tableFor(h)
	e.searches++
	tag := uint64(h) | histLive
	best, second := p.searchTimely(tag, line, refTime, latency)
	// The two nearest timely candidates vote: the minimal timely delta
	// plus the next one back, giving the issuer a second step of
	// lookahead depth (Berti's delta table holds several live deltas
	// per IP; nearest-only voting would collapse it to one).
	for _, he := range [...]int{best, second} {
		if he < 0 {
			continue
		}
		if d := int32(int64(line) - int64(p.hist.line[he])); d != 0 {
			p.bump(e, d)
		}
	}
	if e.searches >= roundSize {
		e.searches /= 2
		for i := range e.deltas {
			e.deltas[i].count /= 2
		}
	}
}

// searchTimely finds the two best timely history candidates for the
// search keyed by (ts descending, slot index ascending) — exactly the
// order the straight-line scan's strict comparisons select, so the
// chain walk is bit-identical to it regardless of chain order. Slots
// whose tag merely collides into the same bucket are filtered by the
// full-tag compare, same as the linear scan.
func (p *Prefetcher) searchTimely(tag uint64, line mem.Line, refTime, latency mem.Cycle) (best, second int) {
	best, second = -1, -1
	for n := p.histHead[histBucket(tag)]; n >= 0; n = p.histNext[n] {
		i := int(n)
		if p.hist.tag[i] != tag || p.hist.line[i] == line {
			continue
		}
		if p.hist.ts[i]+latency > refTime {
			continue
		}
		// Chains are newest-first and every insertion carries the machine
		// clock, so timestamps weakly decrease along the walk: once an
		// eligible entry falls strictly below second's timestamp, nothing
		// further can displace best or second (ties are never strict), and
		// the walk can stop. This is what makes a degenerate single-IP
		// history O(ties) instead of O(historySize) per search.
		if second >= 0 && p.hist.ts[i] < p.hist.ts[second] {
			break
		}
		switch {
		case best < 0 || p.hist.ts[i] > p.hist.ts[best] ||
			(p.hist.ts[i] == p.hist.ts[best] && i < best):
			second = best
			best = i
		case second < 0 || p.hist.ts[i] > p.hist.ts[second] ||
			(p.hist.ts[i] == p.hist.ts[second] && i < second):
			second = i
		}
	}
	return best, second
}

// searchTimelyLinear is the retained straight-line reference for the
// history search: the pre-index implementation, kept as the oracle the
// randomized equivalence tests compare searchTimely against.
func (p *Prefetcher) searchTimelyLinear(tag uint64, line mem.Line, refTime, latency mem.Cycle) (best, second int) {
	best, second = -1, -1
	for i := range p.hist.tag {
		if p.hist.tag[i] != tag || p.hist.line[i] == line {
			continue
		}
		if p.hist.ts[i]+latency > refTime {
			continue
		}
		switch {
		case best < 0 || p.hist.ts[i] > p.hist.ts[best]:
			second = best
			best = i
		case second < 0 || p.hist.ts[i] > p.hist.ts[second]:
			second = i
		}
	}
	return best, second
}

func (p *Prefetcher) tableFor(h uint32) *ipDeltas {
	p.clock++
	if e := &p.table[p.lastSlot]; e.valid && e.ipHash == h {
		e.lru = p.clock
		return e
	}
	for i := range p.table {
		e := &p.table[i]
		if e.valid && e.ipHash == h {
			e.lru = p.clock
			p.lastSlot = int8(i)
			return e
		}
	}
	victim := 0
	for i := range p.table {
		e := &p.table[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lru < p.table[victim].lru {
			victim = i
		}
	}
	p.table[victim] = ipDeltas{valid: true, ipHash: h, lru: p.clock}
	p.lastSlot = int8(victim)
	return &p.table[victim]
}

func (p *Prefetcher) bump(e *ipDeltas, d int32) {
	var free *deltaEntry
	var min *deltaEntry
	for i := range e.deltas {
		de := &e.deltas[i]
		if de.count > 0 && de.delta == d {
			de.count++
			return
		}
		if de.count == 0 && free == nil {
			free = de
		}
		if min == nil || de.count < min.count {
			min = de
		}
	}
	if free != nil {
		*free = deltaEntry{delta: d, count: 1}
		return
	}
	// Replace the weakest delta.
	*min = deltaEntry{delta: d, count: 1}
}

// issueDeltas sends prefetches for the high-coverage deltas of IP.
func (p *Prefetcher) issueDeltas(h uint32, line mem.Line, ip mem.Addr) {
	var e *ipDeltas
	if m := &p.table[p.lastSlot]; m.valid && m.ipHash == h {
		e = m
	} else {
		for i := range p.table {
			if p.table[i].valid && p.table[i].ipHash == h {
				e = &p.table[i]
				p.lastSlot = int8(i)
				break
			}
		}
	}
	if e == nil || e.searches == 0 {
		return
	}
	denom := float64(e.searches)
	demote := p.MSHRFree != nil && p.MSHRFree() < mshrReserve
	issued := 0
	for i := range e.deltas {
		de := e.deltas[i]
		if de.count == 0 {
			continue
		}
		cov := float64(de.count) / denom
		if cov < covL2 {
			continue
		}
		fill := mem.LvlL2
		if cov >= covL1 && !demote {
			fill = mem.LvlL1D
		}
		p.IssueAttempts++
		p.issue(mem.Line(int64(line)+int64(de.delta)), ip, fill)
		if issued++; issued >= maxIssuePerTrigger {
			return
		}
	}
}
