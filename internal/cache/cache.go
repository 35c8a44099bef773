// Package cache implements the bandwidth- and MSHR-limited
// set-associative cache model that forms the simulated memory
// hierarchy. The model follows ChampSim's structure: per-cycle bounded
// read/write/prefetch queue pops, miss-status-holding registers with
// merge and prefetch promotion, latency pipelines, a fill path with
// victim writebacks, and a non-inclusive multilevel organization.
//
// Two extensions support the secure cache system built on top:
//
//   - Speculative-bypass lookups (GhostMinion): probe the level without
//     updating replacement state and, on miss, pass through to the next
//     level without allocating an MSHR; the response fills only the GM.
//   - Clean-propagation writebacks carrying GhostMinion/SUF writeback
//     bits, which decide how far up the hierarchy an on-commit write
//     continues when the line is evicted.
package cache

import (
	"fmt"
	"math/bits"

	"secpref/internal/mem"
	"secpref/internal/probe"
	"secpref/internal/ring"
	"secpref/internal/stats"
)

// Port is anything that accepts memory requests: the next cache level
// or DRAM. Enqueue returns false when the target queue is full (the
// caller must retry — this back-pressure is the contention mechanism
// behind the paper's Fig. 4/5).
type Port interface {
	Enqueue(r *mem.Request) bool
}

// AccessInfo describes a demand access observed at a cache level; the
// prefetcher training hooks receive it.
type AccessInfo struct {
	Line mem.Line
	IP   mem.Addr
	Kind mem.Kind
	Hit  bool
	// HitPrefetched reports a demand hit on a prefetched line;
	// PrefFetchLat is that line's recorded fill latency (Berti stores it
	// alongside the line).
	HitPrefetched bool
	PrefFetchLat  mem.Cycle
	// Merged reports a miss that joined an in-flight prefetch (the
	// classic late prefetch).
	Merged bool
	Cycle  mem.Cycle
	// Timestamp is the request's program-order timestamp, so training
	// events name the load that caused them.
	Timestamp uint64
}

// FillInfo describes a line install; Berti-style self-timing
// prefetchers use the measured fetch latency and the original access
// context.
type FillInfo struct {
	Line     mem.Line
	Latency  mem.Cycle // MSHR allocate -> fill
	Prefetch bool
	Cycle    mem.Cycle
	// IP and ReqIssued describe the first waiter (the access that
	// allocated the MSHR): its instruction pointer and issue cycle.
	IP        mem.Addr
	ReqIssued mem.Cycle
}

// Line metadata is stored struct-of-arrays: the tag array is the only
// thing a lookup scans (one or two cache lines per set instead of a
// stride of full structs), and everything else lives in a parallel
// lineMeta slice touched only on hits, fills, and evictions. A way is
// identified by its flat index set*ways+way; -1 means "not present".
//
// invalidTag marks an empty way. mem.Line is a byte address >> 6 and
// the all-ones value would require an address beyond any the workloads
// generate (address 0 is the only reserved value at the trace level),
// so the sentinel can never collide with a real tag.
const invalidTag = ^mem.Line(0)

// lineMeta flag bits.
const (
	// lineDirty marks a modified line.
	lineDirty = 1 << iota
	// linePrefetched marks a line installed by a prefetch and not yet
	// referenced by demand (accuracy accounting).
	linePrefetched
	// linePropagate is the GhostMinion writeback bit: on eviction the
	// line continues to the next level even if clean.
	linePropagate
)

// The unsigned % (or mask) indexing over this table is a shift-and-
// mask only while the size stays a power of two; this compile-time
// assert (negative array length otherwise) pins that.
type _ [1 - 2*(wheelSize&(wheelSize-1))]byte

type lineMeta struct {
	lru   uint32
	flags uint8
	// rrpv is the SRRIP re-reference prediction (0 = imminent,
	// 3 = distant); unused under LRU.
	rrpv uint8
	// wbbRest carries the remaining writeback bits for levels above.
	wbbRest uint8
	// fetchLat is the fill latency recorded when the line was installed
	// by a prefetch (Berti reads it on a demand hit).
	fetchLat mem.Cycle
}

// mshrEntry holds everything about an in-flight miss except the line
// address, which lives in the parallel mshrLine tag array (invalidTag
// = free slot) so that merge lookups and free-slot allocation scan a
// compact array instead of striding over full entries.
type mshrEntry struct {
	valid     bool
	slot      int      // this entry's index (mshrLine mirror key)
	kind      mem.Kind // strongest kind (demand beats prefetch)
	waiters   []*mem.Request
	child     *mem.Request
	forwarded bool
	alloc     mem.Cycle
	fillLevel mem.Level
	timestamp uint64
	// spec marks an entry whose waiters are all GhostMinion speculative
	// probes: the response completes them but must not install the line
	// (invisible speculation). Any non-speculative joiner clears it.
	spec bool
}

// wheelSize bounds the hit-latency pipeline; must exceed any hit
// latency.
const wheelSize = 128

// fwdCap bounds the pass-through buffer for requests that traverse this
// level without an MSHR (speculative bypasses, deeper-fill prefetches).
const fwdCap = 8

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	// tags/meta are the struct-of-arrays line state (see invalidTag);
	// setMask and ways fold the set-index math into two words.
	tags    []mem.Line
	meta    []lineMeta
	setMask uint64
	ways    int
	clock   uint32
	mshr    []mshrEntry
	// mshrLine mirrors each MSHR entry's line (invalidTag when free);
	// see mshrEntry.
	mshrLine []mem.Line
	inUse    int

	// setSig holds one 64-bit presence signature per set (the
	// GhostMinion fast-miss scheme): bit hash(tag) is set for every
	// resident line, so a lookup whose bit is clear is a certain miss
	// and skips the way scan. Maintained exactly — set on install,
	// recomputed for the set on eviction — so there are no stale
	// positives either. sigShift is log2(sets): the tag starts there.
	setSig   []uint64
	sigShift uint

	// mshrSig is the same scheme over the in-flight MSHR lines; it may
	// go stale (bits of completed entries linger) but never misses a
	// live line, so a clear bit safely skips the merge scan. Rebuilt
	// from mshrLine after mshrRebuildAfter completions. mshrFree is the
	// free-slot bitmask; allocation takes the lowest set bit, which is
	// the same slot the linear first-free scan chose.
	mshrSig   uint64
	mshrStale int
	mshrFree  []uint64

	rq, wq, pq  ring.Buf[*mem.Request]
	fwdq        ring.Buf[*mem.Request]
	fills       ring.Buf[fillRecord]
	wheel       [wheelSize][]*mem.Request
	wheelCount  int
	unforwarded []*mshrEntry

	// wake counts externally delivered work (accepted enqueues and
	// child-request completions); see WakeCount.
	wake uint64

	pool *mem.RequestPool
	next Port
	now  mem.Cycle
	site probe.Site

	// Stats is the level's counter block.
	Stats stats.CacheStats

	// Obs, if set, receives access/merge/fill/drop/install/evict events
	// at this level. Observers are read-only; see internal/probe.
	Obs probe.Observer

	// OnAccess, if set, observes demand accesses at this level
	// (prefetcher training hook).
	OnAccess func(AccessInfo)
	// OnFill, if set, observes line installs at this level.
	OnFill func(FillInfo)
	// OnEvict, if set, observes evictions of valid lines (the Bingo
	// prefetcher and the attack harness use it).
	OnEvict func(line mem.Line)
	// OnSpecAccess, if set, observes GhostMinion speculative-bypass
	// probes (the training stream for on-access prefetching on a secure
	// cache system).
	OnSpecAccess func(AccessInfo)
}

type fillRecord struct {
	req     *mem.Request // the child request that returned
	entry   *mshrEntry   // nil for pass-through fills
	dirty   bool
	isWrite bool // WQ-sourced install (writeback/commit-write)
	wbb     uint8
}

// New builds a cache level connected to next (which may be nil for
// isolated unit tests; misses then complete immediately at a fixed
// penalty — tests only).
func New(cfg Config, next Port) *Cache {
	c := &Cache{cfg: cfg, next: next, pool: &mem.RequestPool{}, site: probe.SiteOf(cfg.Level)}
	nsets := cfg.Sets()
	if nsets == 0 || nsets&(nsets-1) != 0 {
		// Power-of-two set counts keep index math trivial; all Table II
		// configurations satisfy this.
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, nsets))
	}
	c.tags = make([]mem.Line, nsets*cfg.Ways)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.meta = make([]lineMeta, nsets*cfg.Ways)
	c.setMask = uint64(nsets - 1)
	c.ways = cfg.Ways
	c.mshr = make([]mshrEntry, cfg.MSHRs)
	c.mshrLine = make([]mem.Line, cfg.MSHRs)
	for i := range c.mshrLine {
		c.mshrLine[i] = invalidTag
	}
	sigWords := (cfg.MSHRs + 63) / 64
	sigBuf := make([]uint64, nsets+sigWords)
	c.setSig = sigBuf[:nsets:nsets]
	c.sigShift = uint(bits.TrailingZeros64(uint64(nsets)))
	c.mshrFree = sigBuf[nsets:]
	for i := 0; i < cfg.MSHRs; i++ {
		c.mshrFree[i>>6] |= 1 << uint(i&63)
	}
	// Pre-slice wheel slots and MSHR waiter lists out of single backing
	// arrays: both grow from nil on first use otherwise, which costs
	// hundreds of small allocations per simulation. A slot or list that
	// outgrows its pre-sliced capacity falls back to a normal append
	// grow.
	const slotCap = 4
	wheelBuf := make([]*mem.Request, wheelSize*slotCap)
	for i := range c.wheel {
		c.wheel[i] = wheelBuf[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
	const waiterCap = 4
	waiterBuf := make([]*mem.Request, cfg.MSHRs*waiterCap)
	for i := range c.mshr {
		c.mshr[i].waiters = waiterBuf[i*waiterCap : i*waiterCap : (i+1)*waiterCap]
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetPool shares a request pool with the level. Requests flow across
// levels (a writeback born in L1D retires in DRAM), so a machine wires
// one pool through its whole hierarchy.
func (c *Cache) SetPool(p *mem.RequestPool) { c.pool = p }

// Pool returns the level's request pool.
func (c *Cache) Pool() *mem.RequestPool { return c.pool }

// Level returns the level's position in the hierarchy.
func (c *Cache) Level() mem.Level { return c.cfg.Level }

// setBase returns the flat index of l's set's first way.
func (c *Cache) setBase(l mem.Line) int {
	return int(uint64(l)&c.setMask) * c.ways
}

// sigBit maps a line's tag portion to its presence-signature bit.
func (c *Cache) sigBit(l mem.Line) uint64 {
	return 1 << ((uint64(l) >> c.sigShift) & 63)
}

// mshrSigBit maps a line to its MSHR-signature bit.
func mshrSigBit(l mem.Line) uint64 { return 1 << (uint64(l) & 63) }

// rebuildSetSig recomputes the exact signature of one set.
func (c *Cache) rebuildSetSig(set uint64) {
	base := int(set) * c.ways
	var sig uint64
	for _, t := range c.tags[base : base+c.ways] {
		if t != invalidTag {
			sig |= c.sigBit(t)
		}
	}
	c.setSig[set] = sig
}

// lookup finds the flat way index holding l, or -1.
func (c *Cache) lookup(l mem.Line) int {
	set := uint64(l) & c.setMask
	if c.setSig[set]&c.sigBit(l) == 0 {
		return -1 // certain miss: no resident tag hashes to this bit
	}
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i] == l {
			return base + i
		}
	}
	return -1
}

// Contains probes for a line without modifying any state. The SUF
// accuracy oracle and the attack harness use it.
func (c *Cache) Contains(l mem.Line) bool { return c.lookup(l) >= 0 }

// touch updates replacement state on a reference.
func (c *Cache) touch(w int) {
	c.clock++
	c.meta[w].lru = c.clock
	c.meta[w].rrpv = 0 // SRRIP: referenced lines become near-imminent
}

// victimIn selects the replacement victim in a full set, as a flat way
// index.
func (c *Cache) victimIn(base int) int {
	meta := c.meta[base : base+c.ways]
	if c.cfg.Policy == PolicySRRIP {
		for {
			for i := range meta {
				if meta[i].rrpv >= 3 {
					return base + i
				}
			}
			for i := range meta {
				meta[i].rrpv++
			}
		}
	}
	v := 0
	for i := range meta {
		if meta[i].lru < meta[v].lru {
			v = i
		}
	}
	return base + v
}

// Enqueue routes a request to the appropriate queue. It returns false
// (and counts the rejection) when that queue is full.
func (c *Cache) Enqueue(r *mem.Request) bool {
	switch r.Kind {
	case mem.KindWriteback, mem.KindCommitWrite:
		if c.wq.Len() >= c.cfg.WQSize {
			c.Stats.WQFull++
			return false
		}
		c.wq.Push(r)
	case mem.KindPrefetch:
		if c.pq.Len() >= c.cfg.PQSize {
			c.Stats.PQFull++
			c.Stats.PrefDroppedQ++
			return false
		}
		c.pq.Push(r)
	default: // loads, RFOs, refetches
		if c.rq.Len() >= c.cfg.RQSize {
			c.Stats.RQFull++
			return false
		}
		c.rq.Push(r)
	}
	c.wake++
	return true
}

// WakeCount is a monotonic counter of peer-delivered work: accepted
// Enqueues and Completes. A scheduler holding the cache asleep past its
// own NextEvent must re-arm it when the counter moves.
func (c *Cache) WakeCount() uint64 { return c.wake }

// Prefetch is the prefetcher-facing entry point: it wraps the target in
// a request and enqueues it, returning false if the PQ is full.
func (c *Cache) Prefetch(line mem.Line, ip mem.Addr, fillLevel mem.Level, now mem.Cycle) bool {
	r := c.pool.Get()
	r.Line, r.IP, r.Kind, r.FillLevel, r.Issued = line, ip, mem.KindPrefetch, fillLevel, now
	if !c.Enqueue(r) {
		c.pool.Put(r)
		return false
	}
	c.Stats.PrefIssued++
	return true
}

// MSHRFree returns the number of free MSHR entries (Berti throttles on
// MSHR occupancy).
func (c *Cache) MSHRFree() int { return c.cfg.MSHRs - c.inUse }

// respond schedules r's completion after the hit latency.
func (c *Cache) respond(r *mem.Request, servedBy mem.Level) {
	r.ServedBy = servedBy
	slot := (uint64(c.now) + uint64(c.cfg.Latency)) & (wheelSize - 1)
	c.wheel[slot] = append(c.wheel[slot], r)
	c.wheelCount++
}

// Tick advances the cache one cycle.
func (c *Cache) Tick(now mem.Cycle) {
	c.now = now

	// 1. Deliver responses whose latency elapsed. Ownerless requests
	// (fire-and-forget traffic) terminate here and are recycled.
	slot := uint64(now) & (wheelSize - 1)
	if rs := c.wheel[slot]; len(rs) > 0 {
		c.wheelCount -= len(rs)
		for i, r := range rs {
			rs[i] = nil
			if r.Owner != nil {
				r.Owner.Complete(r)
			} else {
				c.pool.Put(r)
			}
		}
		c.wheel[slot] = c.wheel[slot][:0]
	}

	// Shared port budget across all operation classes (0 = unlimited).
	ports := c.cfg.TotalPorts
	if ports == 0 {
		ports = 1 << 30
	}

	// 2. Apply fills (bounded), oldest first.
	nf := 0
	for nf < c.cfg.MaxFills && ports > 0 && c.fills.Len() > 0 {
		fr := c.fills.Front()
		if !c.applyFill(&fr) {
			break // victim writeback blocked; retry next cycle
		}
		c.fills.PopFront()
		nf++
		ports--
	}

	// 3. Retry forwarding for MSHR children and pass-through requests.
	w := 0
	for _, e := range c.unforwarded {
		if !e.valid || e.forwarded {
			continue
		}
		if c.next != nil && c.next.Enqueue(e.child) {
			e.forwarded = true
			continue
		}
		c.unforwarded[w] = e
		w++
	}
	c.unforwarded = c.unforwarded[:w]
	for c.fwdq.Len() > 0 {
		if c.next == nil || !c.next.Enqueue(c.fwdq.Front()) {
			break
		}
		c.fwdq.PopFront()
	}

	// 4. Writes.
	for n := 0; n < c.cfg.MaxWrites && ports > 0 && c.wq.Len() > 0; n++ {
		if !c.handleWrite(c.wq.Front()) {
			break
		}
		c.wq.PopFront()
		ports--
	}

	// 5. Reads.
	for n := 0; n < c.cfg.MaxReads && ports > 0 && c.rq.Len() > 0; n++ {
		if !c.handleRead(c.rq.Front()) {
			break
		}
		c.rq.PopFront()
		ports--
	}

	// 6. Prefetches (lowest priority).
	for n := 0; n < c.cfg.MaxPrefetches && ports > 0 && c.pq.Len() > 0; n++ {
		if !c.handlePrefetch(c.pq.Front()) {
			break
		}
		c.pq.PopFront()
		ports--
	}

	// 7. Integrate occupancy statistics.
	c.Stats.Cycles++
	c.Stats.MSHROccupancy += uint64(c.inUse)
	if c.inUse == c.cfg.MSHRs {
		c.Stats.MSHRFullCycles++
	}
}

// NextEvent reports the earliest future cycle at which this level has
// work of its own: pending queue entries next cycle, or the next
// occupied latency-wheel slot. mem.NoEvent means the level is fully
// idle (in-flight MSHR children are the next level's work until they
// return). The idle-skip loop in sim uses this; see docs/performance.md
// for the legality argument.
func (c *Cache) NextEvent(now mem.Cycle) mem.Cycle {
	if c.rq.Len()+c.wq.Len()+c.pq.Len()+c.fwdq.Len()+c.fills.Len()+len(c.unforwarded) > 0 {
		return now + 1
	}
	if c.wheelCount > 0 {
		for d := uint64(1); d <= wheelSize; d++ {
			if len(c.wheel[(uint64(now)+d)&(wheelSize-1)]) > 0 {
				return now + mem.Cycle(d)
			}
		}
	}
	return mem.NoEvent
}

// SkipIdle integrates the per-cycle occupancy statistics for k skipped
// idle cycles. During an idle stretch nothing in the level changes, so
// the integration is exact: identical to calling Tick k times.
func (c *Cache) SkipIdle(k mem.Cycle) {
	c.now += k // an empty Tick would advance the clock too
	c.Stats.Cycles += uint64(k)
	c.Stats.MSHROccupancy += uint64(c.inUse) * uint64(k)
	if c.inUse == c.cfg.MSHRs {
		c.Stats.MSHRFullCycles += uint64(k)
	}
}

// handleRead processes one RQ entry; returns false to retry next cycle
// (statistics count only the successful attempt).
func (c *Cache) handleRead(r *mem.Request) bool {
	if r.SpecBypass {
		return c.handleSpec(r)
	}
	w := c.lookup(r.Line)
	if w < 0 {
		if !c.missTo(r, r.Kind) {
			return false // MSHR full; retry without double-counting
		}
		c.Stats.Accesses[r.Kind]++
		c.Stats.Misses[r.Kind]++
		c.notifyAccess(r, -1) // r.MergedPrefetch set by missTo if merged
		if c.Obs != nil {
			c.Obs.Event(probe.Event{
				Kind: probe.EvAccess, Site: c.site, Cycle: c.now, Core: r.Core,
				Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind,
			})
		}
		return true
	}
	c.Stats.Accesses[r.Kind]++
	c.notifyAccess(r, w)
	if c.Obs != nil {
		c.Obs.Event(probe.Event{
			Kind: probe.EvAccess, Site: c.site, Cycle: c.now, Core: r.Core,
			Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind, Hit: true,
		})
	}
	c.touch(w)
	m := &c.meta[w]
	if m.flags&linePrefetched != 0 {
		m.flags &^= linePrefetched
		c.Stats.PrefUseful++
		r.HitPrefetched = true
		r.FillLat = m.fetchLat
	}
	if r.Kind == mem.KindRFO {
		m.flags |= lineDirty
	}
	c.respond(r, c.cfg.Level)
	return true
}

// handleSpec processes a GhostMinion speculative probe. Hits are served
// without any replacement-state update; misses allocate (or merge into)
// an MSHR entry — GhostMinion propagates speculative requests through
// the MSHRs of every level, which is exactly the contention §III-A
// analyzes — but the eventual response does not install the line at
// this level (invisible speculation).
func (c *Cache) handleSpec(r *mem.Request) bool {
	w := c.lookup(r.Line)
	if w >= 0 {
		c.Stats.SpecAccesses++
		c.notifySpec(r, w)
		if c.Obs != nil {
			c.Obs.Event(probe.Event{
				Kind: probe.EvAccess, Site: c.site, Cycle: c.now, Core: r.Core,
				Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind, Hit: true,
				Spec: true,
			})
		}
		// The stored prefetch latency travels with the response (the
		// X-LQ Hitp case) and the use is counted for accuracy
		// statistics — measurement, not architectural state.
		m := &c.meta[w]
		if m.flags&linePrefetched != 0 {
			m.flags &^= linePrefetched
			c.Stats.PrefUseful++
			r.HitPrefetched = true
			r.FillLat = m.fetchLat
		}
		c.respond(r, c.cfg.Level)
		return true
	}
	// Merge with an in-flight fetch of the same line (the shared,
	// timestamp-ordered MSHR of GhostMinion). Merging with an in-flight
	// prefetch is the secure system's "late prefetch" event. A clear
	// signature bit (or an empty MSHR) proves no merge candidate.
	if c.inUse > 0 && c.mshrSig&mshrSigBit(r.Line) != 0 {
		for i, l := range c.mshrLine {
			if l != r.Line {
				continue
			}
			e := &c.mshr[i]
			if e.kind == mem.KindPrefetch {
				r.MergedPrefetch = true
				c.Stats.PrefLate++
			}
			e.waiters = append(e.waiters, r)
			c.Stats.SpecAccesses++
			c.Stats.SpecMisses++
			c.Stats.MSHRMerges++
			c.notifySpec(r, -1)
			if c.Obs != nil {
				c.Obs.Event(probe.Event{
					Kind: probe.EvMerge, Site: c.site, Cycle: c.now, Core: r.Core,
					Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind,
					Hit: r.MergedPrefetch, Spec: true,
				})
			}
			return true
		}
	}
	idx := c.allocMSHR()
	if idx < 0 {
		return false // MSHR full: retry (head-of-line contention)
	}
	c.Stats.SpecAccesses++
	c.Stats.SpecMisses++
	c.notifySpec(r, -1)
	if c.Obs != nil {
		c.Obs.Event(probe.Event{
			Kind: probe.EvAccess, Site: c.site, Cycle: c.now, Core: r.Core,
			Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind,
			Spec: true,
		})
	}
	c.initMSHR(idx, r, mem.KindLoad, r.FillLevel)
	e := &c.mshr[idx]
	e.spec = true
	e.child.SpecBypass = true
	return true
}

// notifySpec invokes the speculative-access hook; w < 0 means miss.
func (c *Cache) notifySpec(r *mem.Request, w int) {
	if c.OnSpecAccess == nil {
		return
	}
	ai := AccessInfo{Line: r.Line, IP: r.IP, Kind: r.Kind, Hit: w >= 0, Merged: r.MergedPrefetch, Cycle: c.now, Timestamp: r.Timestamp}
	if w >= 0 && c.meta[w].flags&linePrefetched != 0 {
		ai.HitPrefetched = true
		ai.PrefFetchLat = c.meta[w].fetchLat
	}
	c.OnSpecAccess(ai)
}

// handleWrite processes one WQ entry; returns false to retry.
func (c *Cache) handleWrite(r *mem.Request) bool {
	if w := c.lookup(r.Line); w >= 0 {
		// Write hit. For commit writes and clean propagations this is
		// the "data already found at this level" case: the access costs
		// the port/bandwidth and refreshes LRU, and propagation stops
		// here (the redundant work SUF exists to avoid).
		c.Stats.Accesses[r.Kind]++
		c.touch(w)
		if r.Dirty {
			c.meta[w].flags |= lineDirty
		}
		if r.Owner != nil {
			c.respond(r, c.cfg.Level)
		} else {
			c.pool.Put(r)
		}
		return true
	}
	// Write miss: we carry full-line data (writeback or commit write),
	// so install directly — no fetch — subject to fill bandwidth.
	fr := fillRecord{req: r, isWrite: true, dirty: r.Dirty, wbb: r.WBBits}
	if !c.applyFill(&fr) {
		// Victim writeback blocked; retry the WQ head next cycle.
		return false
	}
	c.Stats.Accesses[r.Kind]++
	c.Stats.Misses[r.Kind]++
	if r.Owner != nil {
		c.respond(r, c.cfg.Level)
	} else {
		c.pool.Put(r)
	}
	return true
}

// handlePrefetch processes one PQ entry; returns false to retry.
func (c *Cache) handlePrefetch(r *mem.Request) bool {
	if r.FillLevel > c.cfg.Level {
		// Destined for a deeper level: pass through (bandwidth only).
		if c.fwdq.Len() >= fwdCap {
			return false
		}
		if c.next == nil {
			// Nowhere to forward: the prefetch terminates here.
			c.pool.Put(r)
		} else if !c.next.Enqueue(r) {
			c.fwdq.Push(r)
		}
		return true
	}
	if w := c.lookup(r.Line); w >= 0 {
		// Already present. A locally-generated prefetch is redundant and
		// dropped; a child of an upper level's MSHR must respond so the
		// parent fill completes.
		c.Stats.Accesses[r.Kind]++
		c.Stats.PrefHitLocal++
		c.touch(w)
		if r.Owner != nil {
			c.respond(r, c.cfg.Level)
		} else {
			c.pool.Put(r)
		}
		return true
	}
	// missToPrefetch consumes (recycles) an ownerless request on its
	// merge path, so snapshot the kind for the stat counters below.
	kind := r.Kind
	if !c.missToPrefetch(r) {
		if r.Owner != nil {
			// An upper level waits on this child: retry rather than
			// orphan the parent MSHR.
			return false
		}
		// MSHR full: demote the prefetch to the next level rather than
		// losing it outright — the line still gets closer to the core.
		if c.next != nil && c.cfg.Level < mem.LvlLLC && c.fwdq.Len() < fwdCap {
			r.FillLevel = c.cfg.Level + 1
			c.Stats.Accesses[kind]++
			c.Stats.Misses[kind]++
			if !c.next.Enqueue(r) {
				c.fwdq.Push(r)
			}
			return true
		}
		c.Stats.PrefDroppedQ++
		if c.Obs != nil {
			c.Obs.Event(probe.Event{
				Kind: probe.EvDrop, Site: c.site, Cycle: c.now, Core: r.Core,
				Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind,
				Aux: probe.DropQueueFull,
			})
		}
		c.pool.Put(r)
		return true
	}
	c.Stats.Accesses[kind]++
	c.Stats.Misses[kind]++
	return true
}

// missTo allocates an MSHR for a demand-class miss and forwards below.
// Returns false (retry) when the MSHR is full.
func (c *Cache) missTo(r *mem.Request, kind mem.Kind) bool {
	// Merge with an in-flight entry if present; skip the scan when the
	// MSHR is empty or the signature proves the line is not in flight.
	if c.inUse > 0 && c.mshrSig&mshrSigBit(r.Line) != 0 {
		for i, l := range c.mshrLine {
			if l != r.Line {
				continue
			}
			e := &c.mshr[i]
			if e.kind == mem.KindPrefetch && kind.IsDemand() {
				// Late prefetch: demand promotes the in-flight prefetch.
				e.kind = kind
				r.MergedPrefetch = true
				c.Stats.PrefetchPromotions++
				c.Stats.PrefLate++
			}
			// A non-speculative joiner makes the eventual fill install;
			// the install's provenance (timestamp) becomes the joiner's,
			// since the joiner is what architecturally justifies it.
			if e.spec {
				e.spec = false
				e.timestamp = r.Timestamp
			}
			e.waiters = append(e.waiters, r)
			c.Stats.MSHRMerges++
			if c.Obs != nil {
				c.Obs.Event(probe.Event{
					Kind: probe.EvMerge, Site: c.site, Cycle: c.now, Core: r.Core,
					Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind,
					Hit: r.MergedPrefetch,
				})
			}
			return true
		}
	}
	idx := c.allocMSHR()
	if idx < 0 {
		return false
	}
	c.initMSHR(idx, r, kind, r.FillLevel)
	return true
}

// missToPrefetch allocates an MSHR for a prefetch miss; returns false
// if none is free (caller drops the prefetch).
func (c *Cache) missToPrefetch(r *mem.Request) bool {
	if c.inUse > 0 && c.mshrSig&mshrSigBit(r.Line) != 0 {
		for i, l := range c.mshrLine {
			if l != r.Line {
				continue
			}
			e := &c.mshr[i]
			// Already being fetched. A waiting child rides along; a
			// local prefetch needs nothing — unless the entry is a
			// speculative probe, in which case the (non-speculative)
			// prefetch upgrades it to an installing fetch.
			if e.spec {
				e.spec = false
				e.kind = mem.KindPrefetch
				e.timestamp = r.Timestamp
			}
			if r.Owner != nil {
				e.waiters = append(e.waiters, r)
				c.Stats.MSHRMerges++
			} else {
				// A local prefetch needs no completion: consumed here.
				c.pool.Put(r)
			}
			return true
		}
	}
	idx := c.allocMSHR()
	if idx < 0 {
		return false
	}
	c.initMSHR(idx, r, mem.KindPrefetch, r.FillLevel)
	return true
}

// allocMSHR reserves a free MSHR slot, returning its index or -1. The
// lowest set bit of the free mask is the same slot the linear
// first-free scan over mshrLine would choose.
func (c *Cache) allocMSHR() int {
	for wi, word := range c.mshrFree {
		if word != 0 {
			b := bits.TrailingZeros64(word)
			c.mshrFree[wi] = word &^ (1 << uint(b))
			c.inUse++
			return wi<<6 + b
		}
	}
	return -1
}

// mshrRebuildAfter bounds MSHR-signature staleness: after this many
// completions the signature is recomputed from the live lines.
const mshrRebuildAfter = 8

func (c *Cache) initMSHR(idx int, r *mem.Request, kind mem.Kind, fillLevel mem.Level) {
	c.mshrLine[idx] = r.Line
	c.mshrSig |= mshrSigBit(r.Line)
	e := &c.mshr[idx]
	*e = mshrEntry{
		valid:     true,
		slot:      idx,
		kind:      kind,
		waiters:   append(e.waiters[:0], r),
		alloc:     c.now,
		fillLevel: fillLevel,
		timestamp: r.Timestamp,
	}
	child := c.pool.Get()
	child.Line = r.Line
	child.IP = r.IP
	child.Kind = kind
	child.Core = r.Core
	child.Issued = c.now
	child.Timestamp = r.Timestamp
	child.FillLevel = fillLevel
	if kind == mem.KindRFO || kind == mem.KindRefetch {
		// RFOs and refetches look like loads below this level.
		child.Kind = mem.KindLoad
	}
	// The child routes its response back to this level's fill queue via
	// the MSHR index — no captured state.
	child.Owner = c
	child.OwnerTag = uint32(idx)
	e.child = child
	e.forwarded = c.next != nil && c.next.Enqueue(child)
	if c.next != nil && !e.forwarded {
		c.unforwarded = append(c.unforwarded, e)
	}
	if c.next == nil {
		// Isolated level (unit tests): complete after a fixed penalty by
		// scheduling the child itself on the wheel; delivery routes it to
		// the fill queue through the normal Owner path.
		const testPenalty = 50
		slot := (uint64(c.now) + testPenalty) & (wheelSize - 1)
		child.ServedBy = c.cfg.Level + 1
		c.wheel[slot] = append(c.wheel[slot], child)
		c.wheelCount++
		e.forwarded = true
	}
}

// Complete implements mem.Completer: a child request issued by initMSHR
// returned from the next level; route it to the fill queue. The MSHR
// entry index rides in OwnerTag and is stable until the fill completes
// the entry.
func (c *Cache) Complete(r *mem.Request) {
	c.wake++
	c.fills.Push(fillRecord{req: r, entry: &c.mshr[r.OwnerTag]})
}

// applyFill installs a line (from a fill response or a full-line
// write), evicting a victim if needed. Returns false when the victim's
// writeback cannot be enqueued below (retry next cycle).
func (c *Cache) applyFill(fr *fillRecord) bool {
	if fr.entry != nil && fr.entry.spec {
		// Speculative-probe response: complete the waiters, install
		// nothing (invisible speculation — the data lands in the GM).
		c.completeMSHR(fr.entry, fr.req)
		c.pool.Put(fr.req)
		return true
	}
	base := c.setBase(fr.req.Line)
	// Refill of a present line (races are benign); the signature-guided
	// lookup skips the scan when the line cannot be resident.
	way := c.lookup(fr.req.Line)
	tags := c.tags[base : base+c.ways]
	if way < 0 {
		for i := range tags {
			if tags[i] == invalidTag {
				way = base + i
				break
			}
		}
	}
	if way < 0 {
		way = c.victimIn(base)
		if !c.evict(way, fr.req) {
			return false
		}
	}
	isPref := fr.entry != nil && fr.entry.kind == mem.KindPrefetch
	var lat mem.Cycle
	if fr.entry != nil {
		lat = c.now - fr.entry.alloc
	}
	c.tags[way] = fr.req.Line
	c.setSig[uint64(fr.req.Line)&c.setMask] |= c.sigBit(fr.req.Line)
	m := &c.meta[way]
	*m = lineMeta{
		fetchLat: lat,
		rrpv:     2, // SRRIP: long re-reference on insertion
	}
	if fr.dirty {
		m.flags |= lineDirty
	}
	if isPref {
		m.flags |= linePrefetched
		m.rrpv = 3 // prefetches insert with a distant prediction
	}
	if fr.isWrite && !fr.dirty {
		// Clean install via commit write or GhostMinion propagation:
		// bit 0 of the carried writeback bits is this level's
		// propagate-on-eviction flag, the rest belong to levels above.
		if fr.wbb&1 != 0 {
			m.flags |= linePropagate
		}
		m.wbbRest = fr.wbb >> 1
	}
	// Refresh recency without touch(): touch would clear the SRRIP
	// insertion prediction set above.
	c.clock++
	m.lru = c.clock
	if isPref {
		c.Stats.PrefFilled++
	}
	if c.Obs != nil {
		// Provenance: entry-backed installs carry the MSHR entry's
		// timestamp (re-attributed to the oldest non-speculative joiner),
		// not the child request's, so an install justified by committed
		// work is never misattributed to a transient trigger.
		seq := fr.req.Timestamp
		if fr.entry != nil {
			seq = fr.entry.timestamp
		}
		c.Obs.Event(probe.Event{
			Kind: probe.EvInstall, Site: c.site, Cycle: c.now, Core: fr.req.Core,
			Seq: seq, Line: fr.req.Line, IP: fr.req.IP,
			Req: fr.req.Kind, Hit: isPref, Aux: uint64(lat),
		})
	}
	if c.OnFill != nil && fr.entry != nil {
		fi := FillInfo{Line: fr.req.Line, Latency: lat, Prefetch: isPref, Cycle: c.now}
		if len(fr.entry.waiters) > 0 {
			fi.IP = fr.entry.waiters[0].IP
			fi.ReqIssued = fr.entry.waiters[0].Issued
		}
		c.OnFill(fi)
	}
	if fr.entry != nil {
		c.completeMSHR(fr.entry, fr.req)
		c.pool.Put(fr.req)
	}
	return true
}

// evict removes a valid line, emitting a writeback when the line is
// dirty or marked for GhostMinion propagation. `by` is the fill that
// forced the eviction: its Core/Kind stamp the EvEvict event as the
// aggressor's provenance (who caused the eviction, not who owned the
// line), and the victim writeback is charged to the same core —
// cost-causation for the DRAM write bandwidth the eviction induced.
// Returns false when the writeback could not be enqueued.
func (c *Cache) evict(w int, by *mem.Request) bool {
	line := c.tags[w]
	if line == invalidTag {
		return true
	}
	m := &c.meta[w]
	dirty := m.flags&lineDirty != 0
	if (dirty || m.flags&linePropagate != 0) && c.next != nil {
		wb := c.pool.Get()
		wb.Line = line
		wb.Kind = mem.KindWriteback
		wb.Core = by.Core
		wb.Issued = c.now
		wb.Dirty = dirty
		wb.WBBits = m.wbbRest
		if !c.next.Enqueue(wb) {
			c.pool.Put(wb)
			return false
		}
		c.Stats.WritebacksOut++
		if !dirty {
			c.Stats.PropagationsOut++
		}
	}
	c.Stats.Evictions++
	if c.OnEvict != nil {
		c.OnEvict(line)
	}
	if c.Obs != nil {
		c.Obs.Event(probe.Event{
			Kind: probe.EvEvict, Site: c.site, Cycle: c.now, Core: by.Core,
			Line: line, Hit: dirty, Req: by.Kind, Aux: uint64(m.wbbRest),
		})
	}
	c.tags[w] = invalidTag
	c.rebuildSetSig(uint64(line) & c.setMask)
	return true
}

// completeMSHR wakes all waiters of a filled entry; ownerless waiters
// (fire-and-forget prefetches and refetches) are recycled here.
func (c *Cache) completeMSHR(e *mshrEntry, child *mem.Request) {
	served := child.ServedBy
	for i, w := range e.waiters {
		e.waiters[i] = nil
		w.ServedBy = served
		w.FillLat = c.now - w.Issued
		if c.Obs != nil {
			c.Obs.Event(probe.Event{
				Kind: probe.EvFill, Site: c.site, Cycle: c.now, Core: w.Core,
				Seq: w.Timestamp, Line: w.Line, IP: w.IP, Req: w.Kind,
				Level: served, Aux: uint64(w.FillLat), Spec: w.SpecBypass,
			})
		}
		if w.Kind.IsDemand() || w.Kind == mem.KindRefetch {
			if w.Kind == mem.KindLoad && !w.SpecBypass {
				c.Stats.DemandMissLatSum += uint64(c.now - w.Issued)
				c.Stats.DemandMissLatCnt++
			}
			if w.Kind == mem.KindRFO {
				// The freshly installed line is dirty.
				if idx := c.lookup(w.Line); idx >= 0 {
					c.meta[idx].flags |= lineDirty
				}
			}
		}
		if w.Owner != nil {
			w.Owner.Complete(w)
		} else {
			c.pool.Put(w)
		}
	}
	e.valid = false
	c.mshrLine[e.slot] = invalidTag
	c.mshrFree[e.slot>>6] |= 1 << uint(e.slot&63)
	e.child = nil
	e.waiters = e.waiters[:0]
	c.inUse--
	if c.mshrStale++; c.mshrStale >= mshrRebuildAfter {
		c.mshrStale = 0
		var sig uint64
		for _, l := range c.mshrLine {
			if l != invalidTag {
				sig |= mshrSigBit(l)
			}
		}
		c.mshrSig = sig
	}
}

// notifyAccess invokes the training hook for demand accesses; w < 0
// means miss.
func (c *Cache) notifyAccess(r *mem.Request, w int) {
	if c.OnAccess == nil || !r.Kind.IsDemand() && r.Kind != mem.KindRefetch {
		return
	}
	ai := AccessInfo{
		Line:      r.Line,
		IP:        r.IP,
		Kind:      r.Kind,
		Hit:       w >= 0,
		Merged:    r.MergedPrefetch,
		Cycle:     c.now,
		Timestamp: r.Timestamp,
	}
	if w >= 0 && c.meta[w].flags&linePrefetched != 0 {
		ai.HitPrefetched = true
		ai.PrefFetchLat = c.meta[w].fetchLat
	}
	c.OnAccess(ai)
}
