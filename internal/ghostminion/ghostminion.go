// Package ghostminion implements the GhostMinion secure cache system
// (Ainsworth, MICRO 2021) as configured by the paper: a small
// strictness-ordered speculative cache (the GM) accessed in parallel
// with L1D, which holds the data of speculative loads until they
// commit. Speculative misses travel the hierarchy as invisible probes
// (no replacement-state updates, no fills) and the response fills only
// the GM. At commit, a GM hit triggers an on-commit write moving the
// line to L1D (with GhostMinion writeback bits governing clean
// propagation on later evictions), and a GM miss triggers a re-fetch
// into the non-speculative hierarchy. TimeGuarding enforces strictness
// ordering: a load may only observe GM insertions made by program-
// older instructions, and MSHR leapfrogging lets older loads displace
// younger ones when the GM MSHR is full.
//
// The Secure Update Filter (SUF) from the paper hooks in at commit
// time via the Filter interface; see internal/core.
package ghostminion

import (
	"math/bits"

	"secpref/internal/cache"
	"secpref/internal/mem"
	"secpref/internal/probe"
	"secpref/internal/ring"
	"secpref/internal/stats"
)

// Config sizes the GM.
type Config struct {
	// Lines is the GM capacity in cache lines (2 KB = 32 lines, fully
	// associative, per the paper).
	Lines   int
	Latency mem.Cycle
	MSHRs   int
	// CommitQueue bounds in-flight commit-time hierarchy updates;
	// retirement stalls when it is full.
	CommitQueue int
}

// DefaultConfig returns the paper's 2 KB GM. The array itself reads in
// 1 cycle; the modeled hit latency of 4 is the full load-to-use path
// (AGU + TLB + tag + data), slightly under the L1D's 5 cycles — using
// the raw 1-cycle array latency would make the secure system *faster*
// than the baseline on GM-hit-heavy code, which neither GhostMinion nor
// this paper observes.
func DefaultConfig() Config {
	return Config{Lines: 32, Latency: 4, MSHRs: 16, CommitQueue: 32}
}

// Filter decides, at commit time, how the hierarchy update for a
// committed load should proceed. The baseline GhostMinion filter always
// updates fully; SUF (internal/core) drops or trims updates using the
// recorded hit level.
type Filter interface {
	// OnCommit receives the committed line and the 2-bit hit level
	// recorded when the data returned. It returns drop=true to suppress
	// the hierarchy update entirely, and otherwise the writeback bits
	// to attach (bit 0: L1D propagates to L2 on eviction; bit 1: L2
	// propagates to LLC).
	OnCommit(line mem.Line, hitLevel mem.Level) (drop bool, wbBits uint8)
}

// FullUpdate is the baseline GhostMinion behaviour: never drop, always
// propagate commit writes up the whole hierarchy.
type FullUpdate struct{}

// OnCommit implements Filter.
func (FullUpdate) OnCommit(mem.Line, mem.Level) (bool, uint8) { return false, 0b11 }

// GM line state is struct-of-arrays, like the cache levels: the tag
// slice is all a lookup touches (the GM is fully associative, so every
// IssueLoad scans all of it), and the per-line metadata lives in a
// parallel slice read only on hits, fills, commits, and squashes.
//
// gmInvalid marks an empty slot; the all-ones line address is
// unreachable (address 0 is the only reserved trace value), so it
// never collides with a real tag.
const gmInvalid = ^mem.Line(0)

type gmLineMeta struct {
	timestamp uint64 // inserting instruction's program order
	lru       uint32
	servedBy  mem.Level // hit level recorded at fill (SUF input)
	fetchLat  mem.Cycle // measured fetch latency to GM (TSB input)
}

type gmMSHR struct {
	valid     bool
	slot      int // this entry's index (mshrFree mirror key)
	line      mem.Line
	timestamp uint64 // oldest waiter
	alloc     mem.Cycle
	waiters   []*mem.Request
	canceled  bool
}

type commitUpdate struct {
	req *mem.Request
}

// GM is the GhostMinion speculative cache plus its commit engine.
type GM struct {
	cfg   Config
	tags  []mem.Line   // per-line tag; gmInvalid = empty slot
	lmeta []gmLineMeta // parallel per-line metadata
	// sig is a conservative presence signature over tags: bit line&63
	// is set for every live line (and possibly for stale ones — bits
	// are only reclaimed by periodic rebuilds, see noteStale). A clear
	// bit proves the line absent, so the common lookup miss skips the
	// tag scan entirely; a set bit just falls through to the scan.
	sig      uint64
	sigStale int
	mshr     []gmMSHR
	// mshrFree is a bitmask of free MSHR slots (bit i of word i/64 set
	// = slot i free): allocation takes the lowest set bit — the same
	// slot a first-free linear scan would pick — without striding over
	// the entries.
	mshrFree []uint64
	// mshrLine mirrors each live MSHR entry's line (gmInvalid when the
	// slot is free or canceled), so the per-load merge scan walks a
	// compact tag array instead of the entries.
	mshrLine []mem.Line
	// mshrSig is the presence-signature scheme applied to the in-flight
	// lines: bit (line & 63) set for every live MSHR entry. A clear bit
	// proves no merge candidate and skips the scan. Bits of departed
	// entries linger (false positives only) until a rebuild, counted by
	// mshrSigStale.
	mshrSig      uint64
	mshrSigStale int
	// mshrMaxTs is a conservative upper bound on the timestamps of live
	// MSHR entries (raised on fetch start, tightened whenever a full
	// leapfrog scan runs). A leapfrog needs a victim strictly younger
	// than the incoming load, so ts >= mshrMaxTs proves there is none
	// without scanning.
	mshrMaxTs uint64
	l1d       *cache.Cache
	clock     uint32
	now       mem.Cycle
	filter    Filter

	// wake counts externally delivered work (accepted loads, probe
	// completions, commits, squashes); see WakeCount.
	wake uint64

	// retryq holds loads displaced by leapfrogging, awaiting re-issue.
	retryq ring.Buf[*mem.Request]
	// commitq holds commit-time updates awaiting L1D queue space.
	commitq ring.Buf[*mem.Request]
	// pending holds probes rejected by a full L1D read queue.
	pending []pendingProbe
	// resp holds responses awaiting the GM hit latency.
	resp []gmResp

	pool *mem.RequestPool
	// ver counts state mutations that could turn a rejected IssueLoad
	// into an accepted one; the core gates issue retries on it.
	ver uint64
	// mshrInUse tracks valid MSHR entries so per-cycle occupancy
	// statistics don't rescan the array.
	mshrInUse int

	// Stats uses the cache counter block: KindLoad accesses/misses are
	// speculative GM lookups; demand miss latency is the load-observed
	// (GM-level) miss latency in the secure system.
	Stats stats.CacheStats

	// OnFill, if set, observes GM fills with the measured fetch
	// latency. ip and accessed describe the access that allocated the
	// GM MSHR entry.
	OnFill func(line mem.Line, latency mem.Cycle, ip mem.Addr, accessed mem.Cycle)
	// OnHit, if set, observes every speculative load that hits in the
	// GM, with its cycle and timestamp. GM hits never reach the L1D, so
	// this completes the on-access training stream on the secure system;
	// misses surface at the L1D through its OnSpecAccess hook.
	OnHit func(line mem.Line, ip mem.Addr, cycle mem.Cycle, ts uint64)

	// Obs, if set, receives access/merge/fill/drop/commit/SUF events at
	// the GM. Observers are read-only; see internal/probe.
	Obs probe.Observer
}

// New builds a GM in front of l1d.
func New(cfg Config, l1d *cache.Cache, filter Filter) *GM {
	if filter == nil {
		filter = FullUpdate{}
	}
	g := &GM{
		cfg:    cfg,
		tags:   make([]mem.Line, cfg.Lines),
		lmeta:  make([]gmLineMeta, cfg.Lines),
		mshr:   make([]gmMSHR, cfg.MSHRs),
		l1d:    l1d,
		filter: filter,
		pool:   &mem.RequestPool{},
	}
	for i := range g.tags {
		g.tags[i] = gmInvalid
	}
	g.mshrFree = make([]uint64, (cfg.MSHRs+63)/64)
	for i := 0; i < cfg.MSHRs; i++ {
		g.mshrMarkFree(i)
	}
	g.mshrLine = make([]mem.Line, cfg.MSHRs)
	for i := range g.mshrLine {
		g.mshrLine[i] = gmInvalid
	}
	// Pre-slice waiter lists from one backing array (see cache.New).
	const waiterCap = 4
	waiterBuf := make([]*mem.Request, cfg.MSHRs*waiterCap)
	for i := range g.mshr {
		g.mshr[i].waiters = waiterBuf[i*waiterCap : i*waiterCap : (i+1)*waiterCap]
	}
	return g
}

func (g *GM) mshrMarkFree(i int) { g.mshrFree[i>>6] |= 1 << uint(i&63) }
func (g *GM) mshrMarkUsed(i int) { g.mshrFree[i>>6] &^= 1 << uint(i&63) }

// SetPool shares the machine-wide request pool with the GM.
func (g *GM) SetPool(p *mem.RequestPool) { g.pool = p }

// StateVersion counts GM mutations after which a previously rejected
// IssueLoad could succeed (fills, fetch starts, leapfrogs, squashes).
// A rejected IssueLoad has no side effects and its outcome is a pure
// function of GM state, so the core may skip retrying a blocked load
// until the version changes — provably the same accept cycle as
// retrying every cycle, at a fraction of the cost.
func (g *GM) StateVersion() uint64 { return g.ver }

// sigRebuildAfter bounds signature staleness: after this many tag
// invalidations the signature is recomputed from the live tags, so
// dead bits cannot accumulate into an always-pass filter.
const sigRebuildAfter = 8

func sigBit(l mem.Line) uint64 { return 1 << uint(l&63) }

// noteStale records one tag invalidation and periodically rebuilds the
// signature from scratch.
func (g *GM) noteStale() {
	g.sigStale++
	if g.sigStale < sigRebuildAfter {
		return
	}
	g.sigStale = 0
	var sig uint64
	for _, t := range g.tags {
		if t != gmInvalid {
			sig |= sigBit(t)
		}
	}
	g.sig = sig
}

// Contains probes the GM without state changes.
func (g *GM) Contains(l mem.Line) bool {
	if g.sig&sigBit(l) == 0 {
		return false
	}
	for _, t := range g.tags {
		if t == l {
			return true
		}
	}
	return false
}

// lookupVisible returns the slot index of the GM entry for l visible
// to an instruction with the given timestamp under TimeGuarding
// (insertions by younger instructions are invisible), or -1.
func (g *GM) lookupVisible(l mem.Line, ts uint64) int {
	if g.sig&sigBit(l) == 0 {
		return -1
	}
	for i, t := range g.tags {
		if t == l && g.lmeta[i].timestamp <= ts {
			return i
		}
	}
	return -1
}

// IssueLoad accepts a speculative load. The request's Done fires when
// data is available (from GM, or via an invisible hierarchy probe that
// fills the GM). Returns false when the load cannot be accepted this
// cycle (MSHR full and not leapfroggable); the core retries.
func (g *GM) IssueLoad(r *mem.Request) bool {
	if !g.issueLoad(r, true, true) {
		return false
	}
	g.wake++
	return true
}

// WakeCount is a monotonic counter of peer-delivered work: accepted
// loads, probe completions, commits, and squashes. A scheduler holding
// the GM asleep past its own NextEvent must re-arm it when the counter
// moves.
func (g *GM) WakeCount() uint64 { return g.wake }

// issueLoad implements IssueLoad; countStats is false for internal
// re-issues of leapfrog-displaced loads (the architectural access was
// already counted), which also may not leapfrog others — without that
// restriction displaced loads and fresh younger loads cancel each other
// in a ping-pong that wastes a memory fetch per round.
func (g *GM) issueLoad(r *mem.Request, countStats, allowLeapfrog bool) bool {
	if w := g.lookupVisible(r.Line, r.Timestamp); w >= 0 {
		if countStats {
			g.Stats.Accesses[mem.KindLoad]++
			if g.Obs != nil {
				g.Obs.Event(probe.Event{
					Kind: probe.EvAccess, Site: probe.SiteGM, Cycle: g.now,
					Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: mem.KindLoad, Hit: true,
					Spec: true,
				})
			}
		}
		if g.OnHit != nil {
			g.OnHit(r.Line, r.IP, g.now, r.Timestamp)
		}
		g.clock++
		g.lmeta[w].lru = g.clock
		r.ServedBy = mem.LvlL1D // GM counts as the lowest level
		g.respond(r)
		return true
	}
	// Merge with an in-flight fetch if TimeGuarding allows: the waiter
	// may ride along only if the fill it will observe comes from an
	// older-or-equal instruction. Fills adopt the oldest waiter's
	// timestamp, so merging is always safe for younger requests. An
	// empty MSHR or a clear signature bit proves no merge candidate.
	if g.mshrInUse > 0 && g.mshrSig&(1<<(uint64(r.Line)&63)) != 0 {
		for i, l := range g.mshrLine {
			if l != r.Line {
				continue
			}
			e := &g.mshr[i]
			e.waiters = append(e.waiters, r)
			if r.Timestamp < e.timestamp {
				e.timestamp = r.Timestamp
			}
			if countStats {
				g.Stats.Accesses[mem.KindLoad]++
				g.Stats.Misses[mem.KindLoad]++
			}
			g.Stats.MSHRMerges++
			if g.Obs != nil {
				g.Obs.Event(probe.Event{
					Kind: probe.EvMerge, Site: probe.SiteGM, Cycle: g.now,
					Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: mem.KindLoad,
					Spec: true,
				})
			}
			return true
		}
	}
	idx := g.allocMSHR(r.Timestamp, allowLeapfrog)
	if idx < 0 {
		return false // rejected: the core retries; count only accepted attempts
	}
	if countStats {
		g.Stats.Accesses[mem.KindLoad]++
		g.Stats.Misses[mem.KindLoad]++
		if g.Obs != nil {
			g.Obs.Event(probe.Event{
				Kind: probe.EvAccess, Site: probe.SiteGM, Cycle: g.now,
				Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: mem.KindLoad,
				Spec: true,
			})
		}
	}
	g.startFetch(idx, r)
	return true
}

// leapfrogMaxAge bounds which fetches may be cancelled: displacing a
// nearly-complete fetch wastes the memory round trip for nothing, so
// only young entries are eligible.
const leapfrogMaxAge = 16

// allocMSHR finds a free entry, or (when allowed) leapfrogs the
// youngest recently-started entry that is strictly younger than ts.
// Returns the entry index, or -1.
func (g *GM) allocMSHR(ts uint64, allowLeapfrog bool) int {
	for w, m := range g.mshrFree {
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	if !allowLeapfrog || ts >= g.mshrMaxTs {
		return -1
	}
	// Leapfrog: displace the youngest entry if it is younger than the
	// incoming request (strictness ordering favors older instructions).
	// The scan also recomputes the exact timestamp maximum, re-tightening
	// mshrMaxTs (merges lower entry timestamps after the bound was set).
	victim := -1
	maxTs := uint64(0)
	for i := range g.mshr {
		e := &g.mshr[i]
		if e.timestamp > maxTs {
			maxTs = e.timestamp
		}
		if e.canceled || g.now-e.alloc > leapfrogMaxAge {
			continue
		}
		if e.timestamp > ts && (victim < 0 || e.timestamp > g.mshr[victim].timestamp) {
			victim = i
		}
	}
	g.mshrMaxTs = maxTs
	if victim < 0 {
		return -1
	}
	g.Stats.Leapfrogs++
	g.ver++
	// Displaced waiters are re-issued by the GM when capacity frees up;
	// the in-flight probe's eventual fill is discarded (the completion
	// handler sees a slot whose line no longer matches).
	v := &g.mshr[victim]
	if g.Obs != nil {
		g.Obs.Event(probe.Event{
			Kind: probe.EvDrop, Site: probe.SiteGM, Cycle: g.now,
			Seq: v.timestamp, Line: v.line, Req: mem.KindLoad,
			Aux: probe.DropLeapfrog, Spec: true,
		})
	}
	for i, w := range v.waiters {
		g.retryq.Push(w)
		v.waiters[i] = nil
	}
	waiters := v.waiters[:0]
	*v = gmMSHR{}
	v.waiters = waiters // keep the backing array for reuse
	g.mshrInUse--
	g.mshrMarkFree(victim)
	g.mshrLine[victim] = gmInvalid
	g.mshrSigNoteStale()
	return victim
}

// mshrSigNoteStale counts a departed MSHR line; after enough of them
// the merge-scan signature is rebuilt from the live lines so lingering
// false-positive bits do not accumulate.
func (g *GM) mshrSigNoteStale() {
	if g.mshrSigStale++; g.mshrSigStale >= sigRebuildAfter {
		g.mshrSigStale = 0
		var sig uint64
		for _, l := range g.mshrLine {
			if l != gmInvalid {
				sig |= 1 << (uint64(l) & 63)
			}
		}
		g.mshrSig = sig
	}
}

// startFetch initializes MSHR slot idx for r and sends the invisible
// probe to L1D.
func (g *GM) startFetch(idx int, r *mem.Request) {
	e := &g.mshr[idx]
	*e = gmMSHR{
		valid:     true,
		slot:      idx,
		line:      r.Line,
		timestamp: r.Timestamp,
		alloc:     g.now,
		waiters:   append(e.waiters[:0], r),
	}
	g.mshrInUse++
	g.mshrMarkUsed(idx)
	g.mshrLine[idx] = r.Line
	g.mshrSig |= 1 << (uint64(r.Line) & 63)
	if r.Timestamp > g.mshrMaxTs {
		g.mshrMaxTs = r.Timestamp
	}
	g.ver++
	probe := g.pool.Get()
	probe.Line = r.Line
	probe.IP = r.IP
	probe.Kind = mem.KindLoad
	probe.Core = r.Core
	probe.Issued = g.now
	probe.Timestamp = r.Timestamp
	probe.SpecBypass = true
	probe.Owner = g
	probe.OwnerTag = uint32(idx)
	if !g.l1d.Enqueue(probe) {
		// L1D read queue full: hold and retry each cycle.
		g.pending = append(g.pending, pendingProbe{e, probe})
	}
}

// Complete implements mem.Completer: the invisible probe for MSHR slot
// OwnerTag returned from the hierarchy. Stale fills (slot canceled or
// recycled for another line) are dropped: the speculative data simply
// never lands in the GM. Either way the probe terminates here.
func (g *GM) Complete(pr *mem.Request) {
	g.wake++
	e := &g.mshr[pr.OwnerTag]
	if e.valid && !e.canceled && e.line == pr.Line {
		g.fill(e, pr)
	}
	g.pool.Put(pr)
}

type pendingProbe struct {
	entry *gmMSHR
	probe *mem.Request
}

// fill installs the returned line into the GM and wakes waiters.
func (g *GM) fill(e *gmMSHR, pr *mem.Request) {
	lat := g.now - e.alloc
	servedBy := pr.ServedBy
	g.insertLine(e.line, gmLineMeta{
		timestamp: e.timestamp,
		servedBy:  servedBy,
		fetchLat:  lat,
	})
	if g.OnFill != nil {
		var ip mem.Addr
		var accessed mem.Cycle
		if len(e.waiters) > 0 {
			ip = e.waiters[0].IP
			accessed = e.waiters[0].Issued
		}
		g.OnFill(e.line, lat, ip, accessed)
	}
	for _, w := range e.waiters {
		w.ServedBy = servedBy
		w.MergedPrefetch = pr.MergedPrefetch
		if pr.HitPrefetched {
			// The probe hit a prefetched L1D line: the waiter observes
			// that line's stored latency (the X-LQ Hitp case).
			w.HitPrefetched = true
			w.FillLat = pr.FillLat
		} else {
			w.FillLat = g.now - w.Issued
		}
		g.Stats.DemandMissLatSum += uint64(g.now - w.Issued)
		g.Stats.DemandMissLatCnt++
		if g.Obs != nil {
			g.Obs.Event(probe.Event{
				Kind: probe.EvFill, Site: probe.SiteGM, Cycle: g.now,
				Seq: w.Timestamp, Line: w.Line, IP: w.IP, Req: mem.KindLoad,
				Level: servedBy, Hit: w.HitPrefetched, Aux: uint64(g.now - w.Issued),
				Spec: true,
			})
		}
		g.respond(w)
	}
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.valid = false
	e.waiters = e.waiters[:0]
	g.mshrInUse--
	g.mshrMarkFree(e.slot)
	g.mshrLine[e.slot] = gmInvalid
	g.mshrSigNoteStale()
	g.ver++
}

// insertLine places a line in the GM, evicting the oldest-timestamp
// entry when full (an evicted speculative line is simply dropped; its
// commit will take the re-fetch path).
func (g *GM) insertLine(line mem.Line, nl gmLineMeta) {
	slot := -1
	for i, t := range g.tags {
		if t == line {
			slot = i
			break
		}
		if slot < 0 && t == gmInvalid {
			slot = i
		}
	}
	if slot < 0 {
		slot = 0
		for i := range g.lmeta {
			if g.lmeta[i].timestamp < g.lmeta[slot].timestamp {
				slot = i
			}
		}
		g.Stats.Evictions++
		g.noteStale() // the evicted line's signature bit goes stale
	}
	g.clock++
	nl.lru = g.clock
	g.tags[slot] = line
	g.lmeta[slot] = nl
	g.sig |= sigBit(line)
}

// respond schedules r's completion after the GM latency.
func (g *GM) respond(r *mem.Request) {
	g.resp = append(g.resp, gmResp{r, g.now + g.cfg.Latency})
}

type gmResp struct {
	req   *mem.Request
	ready mem.Cycle
}

// CanCommit reports whether the commit engine can accept another
// update; retirement stalls otherwise.
func (g *GM) CanCommit() bool { return g.commitq.Len() < g.cfg.CommitQueue }

// Commit processes the retirement of a load: it consults the filter and
// emits the on-commit write (GM hit) or re-fetch (GM miss) into the
// hierarchy. It returns the path taken for statistics. The recorded
// hit level (from the GM line, or the level tracked in the load queue)
// is supplied by the caller, which owns the LQ.
func (g *GM) Commit(line mem.Line, ts uint64, hitLevel mem.Level, cs *stats.CoreStats) {
	g.wake++
	gme := g.lookupVisible(line, ts)
	drop, wbb := g.filter.OnCommit(line, hitLevel)
	if g.Obs != nil {
		g.Obs.Event(probe.Event{
			Kind: probe.EvSUF, Site: probe.SiteGM, Cycle: g.now,
			Seq: ts, Line: line, Level: hitLevel, Hit: drop, Aux: uint64(wbb),
		})
	}
	if drop {
		cs.SUFDrops++
		if g.Obs != nil {
			g.Obs.Event(probe.Event{
				Kind: probe.EvCommit, Site: probe.SiteGM, Cycle: g.now,
				Seq: ts, Line: line, Level: hitLevel, Aux: probe.CommitSUFDrop,
			})
		}
		// Oracle accuracy probe: was the line truly still in L1D, as
		// the recorded hit level promised?
		if !g.l1d.Contains(line) {
			cs.SUFDropWrong++
		}
		// The committed line's GM entry is released either way.
		if gme >= 0 {
			g.tags[gme] = gmInvalid
			g.noteStale()
		}
		return
	}
	if gme >= 0 {
		cs.CommitGMHits++
		if g.Obs != nil {
			g.Obs.Event(probe.Event{
				Kind: probe.EvCommit, Site: probe.SiteGM, Cycle: g.now,
				Seq: ts, Line: line, Level: hitLevel, Hit: true, Aux: probe.CommitGMHit,
			})
		}
		// On-commit write: transfer GM -> L1D.
		r := g.pool.Get()
		r.Line = line
		r.Kind = mem.KindCommitWrite
		r.Issued = g.now
		r.WBBits = wbb
		g.tags[gme] = gmInvalid
		g.noteStale()
		g.commitq.Push(r)
		return
	}
	cs.CommitGMMisses++
	if g.Obs != nil {
		g.Obs.Event(probe.Event{
			Kind: probe.EvCommit, Site: probe.SiteGM, Cycle: g.now,
			Seq: ts, Line: line, Level: hitLevel, Aux: probe.CommitGMMiss,
		})
	}
	// Re-fetch into the non-speculative hierarchy.
	r := g.pool.Get()
	r.Line = line
	r.Kind = mem.KindRefetch
	r.Issued = g.now
	r.Timestamp = ts
	g.commitq.Push(r)
}

// Squash discards all speculative state created by instructions with
// timestamp >= ts: GM lines are invalidated and in-flight fetches are
// cancelled. The attack harness uses it to model transient-instruction
// squash; note the non-speculative hierarchy is untouched, which is
// exactly GhostMinion's security argument.
func (g *GM) Squash(ts uint64) {
	g.wake++
	if g.Obs != nil {
		g.Obs.Event(probe.Event{
			Kind: probe.EvSquash, Site: probe.SiteGM, Cycle: g.now,
			Seq: ts, Spec: true,
		})
	}
	for i, t := range g.tags {
		if t != gmInvalid && g.lmeta[i].timestamp >= ts {
			g.tags[i] = gmInvalid
			g.noteStale()
		}
	}
	for i := range g.mshr {
		e := &g.mshr[i]
		if e.valid && e.timestamp >= ts {
			e.canceled = true
			e.valid = false
			g.mshrInUse--
			g.mshrMarkFree(i)
			g.mshrLine[i] = gmInvalid
			g.mshrSigNoteStale()
			for j := range e.waiters {
				e.waiters[j] = nil
			}
			e.waiters = e.waiters[:0]
		}
	}
	// Squashed retry entries are dropped as well.
	for n := g.retryq.Len(); n > 0; n-- {
		r := g.retryq.PopFront()
		if r.Timestamp < ts {
			g.retryq.Push(r)
		}
	}
	g.ver++
}

// Tick advances the GM one cycle: deliver responses, retry blocked
// probes, reissue displaced loads, and drain the commit queue into the
// L1D.
func (g *GM) Tick(now mem.Cycle) {
	g.now = now

	// Responses.
	w := 0
	for _, p := range g.resp {
		if p.ready <= now {
			if p.req.Owner != nil {
				p.req.Complete()
			} else {
				g.pool.Put(p.req)
			}
		} else {
			g.resp[w] = p
			w++
		}
	}
	for i := w; i < len(g.resp); i++ {
		g.resp[i] = gmResp{} // clear vacated slots
	}
	g.resp = g.resp[:w]

	// Blocked probes.
	w = 0
	for _, pp := range g.pending {
		if !pp.entry.valid || pp.entry.line != pp.probe.Line {
			g.pool.Put(pp.probe)
			continue // canceled
		}
		if !g.l1d.Enqueue(pp.probe) {
			g.pending[w] = pp
			w++
		}
	}
	for i := w; i < len(g.pending); i++ {
		g.pending[i] = pendingProbe{}
	}
	g.pending = g.pending[:w]

	// Reissue displaced loads (bounded per cycle; no stats, no
	// leapfrogging — see issueLoad).
	for n := 0; n < 2 && g.retryq.Len() > 0; n++ {
		if !g.issueLoad(g.retryq.Front(), false, false) {
			break
		}
		g.retryq.PopFront()
	}

	// Drain commit updates.
	for g.commitq.Len() > 0 {
		if !g.l1d.Enqueue(g.commitq.Front()) {
			break
		}
		g.commitq.PopFront()
	}

	// Occupancy statistics.
	g.Stats.Cycles++
	g.Stats.MSHROccupancy += uint64(g.mshrInUse)
	if g.mshrInUse == g.cfg.MSHRs {
		g.Stats.MSHRFullCycles++
	}
}

// NextEvent reports the earliest future cycle at which the GM has work
// of its own: a response maturing, or queued probes/retries/commits to
// push (retried every cycle). mem.NoEvent means idle — in-flight
// probes are the hierarchy's work until they return.
func (g *GM) NextEvent(now mem.Cycle) mem.Cycle {
	if len(g.pending) > 0 || g.retryq.Len() > 0 || g.commitq.Len() > 0 {
		return now + 1
	}
	next := mem.NoEvent
	for _, p := range g.resp {
		if p.ready < next {
			next = p.ready
		}
	}
	if next != mem.NoEvent && next <= now {
		next = now + 1
	}
	return next
}

// SkipIdle integrates the per-cycle occupancy statistics for k skipped
// idle cycles (exact: nothing in the GM changes while idle).
func (g *GM) SkipIdle(k mem.Cycle) {
	g.now += k // keep MSHR ages and fill latencies exact across the skip
	g.Stats.Cycles += uint64(k)
	g.Stats.MSHROccupancy += uint64(g.mshrInUse) * uint64(k)
	if g.mshrInUse == g.cfg.MSHRs {
		g.Stats.MSHRFullCycles += uint64(k)
	}
}
