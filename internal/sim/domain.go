package sim

import (
	"time"

	"secpref/internal/cache"
	"secpref/internal/cpu"
	"secpref/internal/dram"
	"secpref/internal/event"
	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/observatory"
)

// Attribution ranks: each component kind's index in a profile
// (rankNames, ShardProfileRanks). A cache's rank follows its level.
const (
	rankCore = iota
	rankGM
	rankL1D
	rankL2
	rankLLC
	rankDRAM
	rankLink
)

// ticked is the wake snapshot a rank gets when it ticks: no counter
// ever reaches it, so the re-arm pass sees the rank as poked and
// reschedules it.
const ticked = ^uint64(0)

// corePair is a core and its GM (nil on a non-secure system), with the
// wake counters and GM state version seen at their last (re)schedule.
type corePair struct {
	core                  *cpu.Core
	gm                    *ghostminion.GM
	coreWake, gmWake, ver uint64
}

// cacheRank is one cache with its wake counter at its last
// (re)schedule and its attribution rank.
type cacheRank struct {
	c    *cache.Cache
	wake uint64
	prof int
}

// domain is one set of components advanced together on one clock, in
// fixed tick order: core/GM pairs, then caches, then a DRAM or link
// tail. Its calendar holds one entry per component in that order; ties
// at a cycle tick in rank order, which is the lockstep order. The
// single-core Machine, each sharded core's private domain, the shared
// LLC/DRAM domain and the SMT core are all domains.
//
// A domain advances in one of two modes (advance). The event engine
// jumps over provably idle gaps and ticks only components that are due
// or were handed work. The reference engine (step) ticks every
// component every cycle and never reads the calendar, the wake counters
// or SkipIdle, so it stays an independent oracle for the event engine.
//
// The rank groups are typed fixed-size arrays with direct calls, kept
// inside the struct: per-rank interface dispatch or separately
// allocated rank tables cost several percent of simulator throughput.
type domain struct {
	// now is the domain's clock. The Machine's prefetch issuer reads it
	// mid-tick, so the domain advances the machine's own clock.
	now  mem.Cycle
	evq  *event.Queue
	prof *observatory.Profile
	// The tail: exactly one of dram and link is set. tailWake is the
	// DRAM wake counter at its last (re)schedule.
	dram     *dram.DRAM
	link     *CoreLink
	tailWake uint64
	// arrivals, on the shared domain, drains the cores' buffered requests
	// into the first cache rank at every visited cycle, before it ticks.
	arrivals *SharedDomain
	noSkip   bool // reference engine selected
	primed   bool // calendar built (domains that prime once)

	np, nc int // pairs and caches in use
	caches [3]cacheRank
	pairs  [2]corePair
}

func newDomain(pairs []corePair, caches []*cache.Cache, d *dram.DRAM, link *CoreLink) domain {
	dom := domain{dram: d, link: link, evq: event.New(2*len(pairs) + len(caches) + 1), np: len(pairs), nc: len(caches)}
	copy(dom.pairs[:], pairs)
	for i, c := range caches {
		dom.caches[i] = cacheRank{c: c, prof: rankL1D + int(c.Level())}
	}
	return dom
}

// Now returns the cycle the domain has completed.
func (d *domain) Now() mem.Cycle { return d.now }

// UseReferenceEngine selects between the calendar-queue event engine
// (false, the default) and the lockstep tick-every-cycle reference
// engine the equivalence machinery compares against.
func (d *domain) UseReferenceEngine(on bool) { d.noSkip = on }

// AttachShardProfile arms attribution profiling with the multicore rank
// vocabulary (ShardProfileRanks).
func (d *domain) AttachShardProfile(p *observatory.Profile) {
	d.attachProfile(p, ShardProfileRanks[:])
}

// attachProfile arms engine-attribution profiling. Nil leaves the run
// unprofiled (the hot paths pay one nil check per rank slot).
func (d *domain) attachProfile(p *observatory.Profile, names []string) {
	if p == nil {
		return
	}
	p.EnsureRanks(names)
	if p.EngineVersion == "" {
		p.EngineVersion = EngineVersion
	}
	d.prof = p
}

// retired sums the domain's retired-instruction counts and reports
// whether every core has retired target or run out of trace.
func (d *domain) retired(target uint64) (sum uint64, done bool) {
	done = true
	for i := range d.pairs[:d.np] {
		c := d.pairs[i].core
		sum += c.Stats.Instructions
		done = done && (c.Stats.Instructions >= target || c.Done())
	}
	return sum, done
}

// tail returns the tail's calendar rank.
func (d *domain) tail() int { return 2*d.np + d.nc }

// prime (re)builds the calendar from scratch: every rank is scheduled at
// its component's own NextEvent and the wake counters and GM versions
// are snapshotted.
func (d *domain) prime() {
	r := 0
	for i := range d.pairs[:d.np] {
		p := &d.pairs[i]
		d.evq.Schedule(r, p.core.NextEvent(d.now))
		p.coreWake = p.core.WakeCount()
		if p.gm != nil {
			d.evq.Schedule(r+1, p.gm.NextEvent(d.now))
			p.gmWake, p.ver = p.gm.WakeCount(), p.gm.StateVersion()
		}
		r += 2
	}
	for i := range d.caches[:d.nc] {
		c := &d.caches[i]
		d.evq.Schedule(r, c.c.NextEvent(d.now))
		c.wake = c.c.WakeCount()
		r++
	}
	if d.dram != nil {
		d.evq.Schedule(r, d.dram.NextEvent(d.now))
		d.tailWake = d.dram.WakeCount()
	} else {
		d.evq.Schedule(r, d.link.NextInject(d.now))
	}
}

// resume readies the calendar of a domain that advances in phases
// (sharded systems): the first call primes it; later calls refresh only
// the link tail, the one rank a peer (the shared domain) hands work to
// between phases. Every other schedule is still exact, because nothing
// else touches this domain's components.
func (d *domain) resume() {
	switch {
	case d.noSkip:
	case !d.primed:
		d.prime()
		d.primed = true
	case d.link != nil:
		d.evq.Schedule(d.tail(), d.link.NextInject(d.now))
	}
}

// step is the reference engine: one cycle, every component ticked in
// rank order.
func (d *domain) step() {
	d.now++
	t := d.now
	for i := range d.pairs[:d.np] {
		p := &d.pairs[i]
		p.core.Tick(t)
		if p.gm != nil {
			p.gm.Tick(t)
		}
	}
	if d.arrivals != nil {
		d.arrivals.drain(t)
	}
	for _, c := range d.caches[:d.nc] {
		c.c.Tick(t)
	}
	if d.dram != nil {
		d.dram.Tick(t)
	} else {
		d.link.Inject(t)
	}
	if d.prof != nil {
		// Every rank is attributed a plain due tick, so profiles from both
		// engines share a vocabulary.
		d.prof.Advance(false)
		for _, p := range d.pairs[:d.np] {
			d.prof.Visit(rankCore, true, true, false, false)
			if p.gm != nil {
				d.prof.Visit(rankGM, true, true, false, false)
			}
		}
		for _, c := range d.caches[:d.nc] {
			d.prof.Visit(c.prof, true, true, false, false)
		}
		d.prof.Visit(d.tailProf(), true, true, false, false)
	}
}

// tailProf returns the tail's attribution rank.
func (d *domain) tailProf() int {
	if d.dram != nil {
		return rankDRAM
	}
	return rankLink
}

// advance makes one advance toward limit (> now). The reference engine
// steps one cycle. The event engine visits cycle t, the earliest
// scheduled wake (or buffered arrival), clamped down to limit. The gap
// (now, t) is provably idle for every component, so all components
// first SkipIdle across it (exact: identical to empty Ticks). Cycle t
// itself is processed in rank order: a component ticks if its schedule
// is due, if a peer handed it work (wake counter moved), or — for a
// core — if its GM's state version moved (port-blocked loads retry on
// version change); otherwise it integrates one empty cycle at its rank
// slot via SkipIdle. Integrating idle components in rank order with the
// ticks keeps every cross-component clock read bit-identical to
// lockstep stepping: a component poked by a lower-ranked peer still
// shows t-1, one poked by a higher-ranked peer shows t. Finally every
// rank that ticked or was poked this cycle (including pokes from
// higher-ranked peers after its slot passed) is re-armed at a fresh
// NextEvent; untouched ranks keep their entry.
func (d *domain) advance(limit mem.Cycle) {
	if d.noSkip {
		d.step()
		return
	}
	t := d.evq.Next()
	if d.arrivals != nil {
		if a := d.arrivals.nextArrival(); a < t {
			t = a
		}
	}
	clamped := t > limit
	if clamped {
		t = limit
	}
	if k := t - d.now - 1; k > 0 {
		for i := range d.pairs[:d.np] {
			d.pairs[i].core.SkipIdle(k)
			if gm := d.pairs[i].gm; gm != nil {
				gm.SkipIdle(k)
			}
		}
		for i := range d.caches[:d.nc] {
			d.caches[i].c.SkipIdle(k)
		}
		if d.dram != nil {
			d.dram.SkipIdle(k)
		}
		d.now += k
		if d.prof != nil {
			d.prof.Gap(uint64(k))
		}
	}
	d.now = t
	if d.prof != nil {
		d.prof.Advance(clamped)
	}
	// The profile hooks run before the component calls, so no
	// attribution flag has to survive a call: on this path every extra
	// value live across a Tick costs measurable throughput.
	r := 0
	for i := range d.pairs[:d.np] {
		p := &d.pairs[i]
		due := d.evq.At(r) <= t
		woke := p.core.WakeCount() != p.coreWake
		ver := p.gm != nil && p.gm.StateVersion() != p.ver
		tick := due || woke || ver
		d.visited(rankCore, tick, due, woke, ver)
		if !tick {
			p.core.SkipIdle(1)
		} else {
			p.coreWake = ticked
			if d.prof != nil && d.prof.WallDue(rankCore) {
				s := time.Now()
				p.core.Tick(t)
				d.prof.WallRecord(rankCore, time.Since(s))
			} else {
				p.core.Tick(t)
			}
		}
		if p.gm != nil {
			due := d.evq.At(r+1) <= t
			woke := p.gm.WakeCount() != p.gmWake
			tick := due || woke
			d.visited(rankGM, tick, due, woke, false)
			if !tick {
				p.gm.SkipIdle(1)
			} else {
				p.gmWake = ticked
				if d.prof != nil && d.prof.WallDue(rankGM) {
					s := time.Now()
					p.gm.Tick(t)
					d.prof.WallRecord(rankGM, time.Since(s))
				} else {
					p.gm.Tick(t)
				}
			}
		}
		r += 2
	}
	if d.arrivals != nil {
		d.arrivals.drain(t)
	}
	for i := range d.caches[:d.nc] {
		c := &d.caches[i]
		due := d.evq.At(r) <= t
		woke := c.c.WakeCount() != c.wake
		tick := due || woke
		d.visited(c.prof, tick, due, woke, false)
		if !tick {
			c.c.SkipIdle(1)
		} else {
			c.wake = ticked
			if d.prof != nil && d.prof.WallDue(c.prof) {
				s := time.Now()
				c.c.Tick(t)
				d.prof.WallRecord(c.prof, time.Since(s))
			} else {
				c.c.Tick(t)
			}
		}
		r++
	}
	injected := false
	if d.dram != nil {
		due := d.evq.At(r) <= t
		woke := d.dram.WakeCount() != d.tailWake
		tick := due || woke
		d.visited(rankDRAM, tick, due, woke, false)
		if !tick {
			d.dram.SkipIdle(1)
		} else {
			d.tailWake = ticked
			if d.prof != nil && d.prof.WallDue(rankDRAM) {
				s := time.Now()
				d.dram.Tick(t)
				d.prof.WallRecord(rankDRAM, time.Since(s))
			} else {
				d.dram.Tick(t)
			}
		}
	} else {
		// Injection acts only when a response becomes visible; an idle
		// link has no per-cycle state to integrate.
		injected = d.evq.At(r) <= t
		d.visited(rankLink, injected, injected, false, false)
		if injected {
			d.link.Inject(t)
		}
	}

	r = 0
	for i := range d.pairs[:d.np] {
		p := &d.pairs[i]
		re := p.core.WakeCount() != p.coreWake || (p.gm != nil && p.gm.StateVersion() != p.ver)
		d.rearmed(rankCore, re)
		if re {
			p.coreWake = p.core.WakeCount()
			if p.gm != nil {
				p.ver = p.gm.StateVersion()
			}
			d.evq.Schedule(r, p.core.NextEvent(t))
		}
		if p.gm != nil {
			re := p.gm.WakeCount() != p.gmWake
			d.rearmed(rankGM, re)
			if re {
				p.gmWake = p.gm.WakeCount()
				d.evq.Schedule(r+1, p.gm.NextEvent(t))
			}
		}
		r += 2
	}
	for i := range d.caches[:d.nc] {
		c := &d.caches[i]
		re := c.c.WakeCount() != c.wake
		d.rearmed(c.prof, re)
		if re {
			c.wake = c.c.WakeCount()
			d.evq.Schedule(r, c.c.NextEvent(t))
		}
		r++
	}
	if d.dram != nil {
		re := d.dram.WakeCount() != d.tailWake
		d.rearmed(rankDRAM, re)
		if re {
			d.tailWake = d.dram.WakeCount()
			d.evq.Schedule(r, d.dram.NextEvent(t))
		}
	} else {
		d.rearmed(rankLink, injected)
		d.evq.Schedule(r, d.link.NextInject(t))
	}
}

// visited and rearmed are the profile hooks of advance.
func (d *domain) visited(rank int, ticked, due, woke, ver bool) {
	if d.prof != nil {
		d.prof.Visit(rank, ticked, due, woke, ver)
	}
}

func (d *domain) rearmed(rank int, re bool) {
	if d.prof != nil {
		d.prof.Rearm(rank, re)
	}
}
