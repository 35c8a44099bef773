// Sharded multi-core support: the per-core link (the private-L2 to
// shared-LLC interconnect), the shared LLC/DRAM domain with its
// deterministic cross-core drain, and the private-domain event engine
// that advances one core system independently of its peers.
//
// Topology: each core's L2 forwards into its CoreLink instead of the
// shared LLC directly. The link buffers outbound requests (stamped with
// their issue cycle) until the shared domain drains them, and delays
// responses by LinkLatency cycles on the way back. Because a response
// produced at shared cycle u becomes visible to the core only at
// u+LinkLatency, a core advanced through cycle T needs nothing the
// shared domain produces after T-ε for any epoch of length ε ≤
// LinkLatency — the epoch-safety bound that lets every core run a whole
// barrier interval without observing its peers. See docs/performance.md.
package sim

import (
	"fmt"

	"secpref/internal/cache"
	"secpref/internal/dram"
	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/trace"
)

// DefaultLinkLatency is the private-L2 to shared-LLC interconnect
// latency (response path) when the multicore configuration does not
// override it. It doubles as the parallel engine's maximum barrier
// interval.
const DefaultLinkLatency mem.Cycle = 24

// ShardProfileRanks names the attribution ranks of a sharded multicore
// run. Indices 0-5 match the single-core vocabulary (so campaign
// aggregates mixing single- and multi-core runs line up); the link is
// appended as rank 6.
var ShardProfileRanks = [...]string{"core", "gm", "l1d", "l2", "llc", "dram", "link"}

// linkEntry is one buffered request: at is the issue cycle on the
// outbound path and the visibility cycle on the inbound path.
type linkEntry struct {
	at  mem.Cycle
	req *mem.Request
}

// ownerSlot parks a request's original completion routing while the
// shared domain owns it.
type ownerSlot struct {
	owner mem.Completer
	tag   uint32
	live  bool
}

// CoreLink is one core's bridge to the shared domain. The core side
// (its L2 and the private advance loop) touches out-appends and
// in-drains; the shared side (drain and completions) touches out-drains
// and in-appends. The two sides run in alternating phases separated by
// barriers, so no field needs a lock.
type CoreLink struct {
	core   int // owning core's index, stamped onto outbound requests
	lat    mem.Cycle
	shared *SharedDomain // for the response-visibility stamp

	now *mem.Cycle // the core domain's clock, stamped onto outbound requests

	// kindCounts tallies outbound requests by mem.Kind — the per-core
	// shared-link traffic the interference observatory samples at
	// barriers. Measurement only: deliberately excluded from StateDigest
	// (it is not architectural state), written by the core's goroutine
	// during epochs and read serially at barrier boundaries.
	kindCounts [mem.NumKinds]uint64

	out     []linkEntry // issued by L2, awaiting the deterministic drain
	outHead int
	in      []linkEntry // completed by the shared domain, awaiting injection
	inHead  int

	slots     []ownerSlot
	freeSlots []uint32
}

// Enqueue implements cache.Port for the core's L2: the interconnect
// buffers without bound, so issue-side back-pressure is applied at
// drain time (head-of-line, per core) instead of at the L2's forward
// port. The request is stamped with the core-domain cycle it was
// issued and with the owning core's index — the single choke point
// every request entering the shared domain passes through, so all
// shared-domain traffic (and its children: MSHR fetches, victim
// writebacks) carries its originating core. Core is not digested
// (observatory.DigestRequest excludes it), so the stamp cannot perturb
// determinism digests.
func (l *CoreLink) Enqueue(r *mem.Request) bool {
	r.Core = l.core
	l.kindCounts[r.Kind]++
	l.out = append(l.out, linkEntry{at: *l.now, req: r})
	return true
}

// KindCounts snapshots the cumulative outbound request tally by
// mem.Kind. Only meaningful between core phases (barrier boundaries),
// where the happens-before edge from the worker join makes the
// core-goroutine writes visible.
func (l *CoreLink) KindCounts() [mem.NumKinds]uint64 { return l.kindCounts }

// headAt peeks the oldest undrained outbound request's issue cycle.
func (l *CoreLink) headAt() (mem.Cycle, bool) {
	if l.outHead < len(l.out) {
		return l.out[l.outHead].at, true
	}
	return 0, false
}

func (l *CoreLink) peekHead() *mem.Request { return l.out[l.outHead].req }

func (l *CoreLink) popHead() *mem.Request {
	r := l.out[l.outHead].req
	l.out[l.outHead] = linkEntry{}
	l.outHead++
	if l.outHead == len(l.out) {
		l.out = l.out[:0]
		l.outHead = 0
	}
	return r
}

// swapOwner parks r's completion routing in a slot and points the
// request at the link, so the shared domain's completion lands back
// here instead of inside the (possibly still mid-epoch) core.
func (l *CoreLink) swapOwner(r *mem.Request) {
	if r.Owner == nil {
		return // fire-and-forget traffic terminates in the shared domain
	}
	var s uint32
	if n := len(l.freeSlots); n > 0 {
		s = l.freeSlots[n-1]
		l.freeSlots = l.freeSlots[:n-1]
	} else {
		l.slots = append(l.slots, ownerSlot{})
		s = uint32(len(l.slots) - 1)
	}
	l.slots[s] = ownerSlot{owner: r.Owner, tag: r.OwnerTag, live: true}
	r.Owner, r.OwnerTag = l, s
}

// unswapOwner undoes swapOwner after a rejected drain attempt.
func (l *CoreLink) unswapOwner(r *mem.Request) {
	if r.Owner != mem.Completer(l) {
		return
	}
	s := r.OwnerTag
	r.Owner, r.OwnerTag = l.slots[s].owner, l.slots[s].tag
	l.slots[s] = ownerSlot{}
	l.freeSlots = append(l.freeSlots, s)
}

// Complete implements mem.Completer for the shared side: the LLC or
// DRAM finished r, so restore its original routing and schedule it for
// injection into the core LinkLatency cycles from now. Visibility
// cycles are nondecreasing (the shared clock only moves forward), so
// the inbound buffer stays sorted by construction.
func (l *CoreLink) Complete(r *mem.Request) {
	s := r.OwnerTag
	r.Owner, r.OwnerTag = l.slots[s].owner, l.slots[s].tag
	l.slots[s] = ownerSlot{}
	l.freeSlots = append(l.freeSlots, s)
	l.in = append(l.in, linkEntry{at: l.shared.now + l.lat, req: r})
}

// NextInject reports the earliest future cycle an inbound response
// becomes visible to the core, or mem.NoEvent.
func (l *CoreLink) NextInject(now mem.Cycle) mem.Cycle {
	if l.inHead < len(l.in) {
		if at := l.in[l.inHead].at; at > now {
			return at
		}
		return now + 1
	}
	return mem.NoEvent
}

// Inject delivers every inbound response visible at cycle now to its
// original owner (the L2's Complete, which queues the fill and bumps
// its wake counter).
func (l *CoreLink) Inject(now mem.Cycle) {
	for l.inHead < len(l.in) && l.in[l.inHead].at <= now {
		r := l.in[l.inHead].req
		l.in[l.inHead] = linkEntry{}
		l.inHead++
		r.Owner.Complete(r)
	}
	if l.inHead == len(l.in) {
		l.in = l.in[:0]
		l.inHead = 0
	}
}

// StateDigest folds the link's architectural state — buffered requests
// on both paths and the parked completion slots — so mid-flight bridge
// state participates in the determinism digests.
func (l *CoreLink) StateDigest() uint64 {
	d := observatory.NewDigest().Word(uint64(l.lat))
	d = d.Word(uint64(len(l.out) - l.outHead))
	for _, e := range l.out[l.outHead:] {
		d = d.Word(uint64(e.at))
		d = observatory.DigestRequest(d, e.req)
	}
	d = d.Word(uint64(len(l.in) - l.inHead))
	for _, e := range l.in[l.inHead:] {
		d = d.Word(uint64(e.at))
		d = observatory.DigestRequest(d, e.req)
	}
	for i, s := range l.slots {
		if s.live {
			d = d.Word(uint64(i)).Word(uint64(s.tag))
		}
	}
	return d.Sum()
}

// SharedDomain is the serial half of a sharded system: a domain of the
// shared LLC and the DRAM channel, with the deterministic drain that
// merges the cores' buffered requests running before the LLC's rank.
// It only ever runs between core phases, on one goroutine.
type SharedDomain struct {
	domain
	llc   *cache.Cache
	links []*CoreLink
	seed  uint64

	// BlackHole, when >= 0, silently drops that core's outbound
	// requests at drain time (wedge-injection test hook).
	BlackHole int

	stall []bool // per-core head-of-line stall, valid within one drain cycle
}

// LLC exposes the shared cache (diagnostics and stats snapshots).
func (s *SharedDomain) LLC() *cache.Cache { return s.llc }

// DRAM exposes the shared memory channel (observer attachment and
// stats snapshots).
func (s *SharedDomain) DRAM() *dram.DRAM { return s.dram }

// StateDigests appends the shared components' digests (LLC, DRAM).
func (s *SharedDomain) StateDigests(dst []uint64) []uint64 {
	return append(dst, s.llc.StateDigest(), s.dram.StateDigest())
}

// nextArrival reports the earliest cycle a buffered request wants to
// enter the LLC: a head rejected at or before the current cycle retries
// next cycle.
func (s *SharedDomain) nextArrival() mem.Cycle {
	next := mem.NoEvent
	for _, l := range s.links {
		if at, ok := l.headAt(); ok {
			if at <= s.now {
				return s.now + 1
			}
			if at < next {
				next = at
			}
		}
	}
	return next
}

// drain moves every buffered request with issue cycle <= t into the
// LLC, in the seeded deterministic merge order: strictly by issue
// cycle, ties between cores broken by core index rotated by
// (seed+cycle) mod cores. A request the LLC rejects (queue full) stalls
// its core's FIFO for this cycle and retries on the next; other cores
// keep draining. The order depends only on buffered state, never on
// which goroutine produced it.
func (s *SharedDomain) drain(t mem.Cycle) {
	n := len(s.links)
	for i := range s.stall {
		s.stall[i] = false
	}
	for {
		best, bestOrd := -1, 0
		bestAt := mem.NoEvent
		for i, l := range s.links {
			if s.stall[i] {
				continue
			}
			at, ok := l.headAt()
			if !ok || at > t {
				continue
			}
			rot := int((s.seed + uint64(at)) % uint64(n))
			ord := (i - rot + n) % n
			if at < bestAt || (at == bestAt && ord < bestOrd) {
				best, bestAt, bestOrd = i, at, ord
			}
		}
		if best < 0 {
			return
		}
		l := s.links[best]
		if best == s.BlackHole {
			l.popHead() // dropped: never reaches the LLC, never completes
			continue
		}
		r := l.peekHead()
		l.swapOwner(r)
		if !s.llc.Enqueue(r) {
			l.unswapOwner(r)
			s.stall[best] = true
			continue
		}
		l.popHead()
	}
}

// Advance runs the shared domain from its current cycle to exactly
// `to`: on the event engine idle gaps are integrated with SkipIdle and
// visited cycles drain arrivals and tick whichever of LLC/DRAM is due
// or was poked. Bit-identical to the reference engine's every-cycle
// step.
func (s *SharedDomain) Advance(to mem.Cycle) {
	s.resume()
	for s.now < to {
		s.advance(to)
	}
}

// ShardedSystem is a built multi-core system: per-core private domains
// behind links, around one shared LLC/DRAM domain.
type ShardedSystem struct {
	Cores  []*CoreSystem
	Links  []*CoreLink
	Shared *SharedDomain
	// LinkLatency is the configured interconnect latency — the epoch-
	// safety bound for barrier intervals.
	LinkLatency mem.Cycle
}

// BuildSharded assembles a sharded multi-core system: each core gets
// its own request pool (core phases run on separate goroutines), a
// private GM/L1D/L2 stack forwarding into its CoreLink, and the shared
// domain owns the LLC, the DRAM channel, and their pool. linkLat <= 0
// selects DefaultLinkLatency; seed parameterizes the drain rotation.
func BuildSharded(cfg Config, cores int, mix []trace.Source, linkLat mem.Cycle, seed uint64) (*ShardedSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 || len(mix) != cores {
		return nil, fmt.Errorf("sim: a sharded system needs one trace per core, got %d traces for %d cores", len(mix), cores)
	}
	if linkLat <= 0 {
		linkLat = DefaultLinkLatency
	}
	// The shared LLC scales the per-core bank config by the core count:
	// capacity, MSHRs, queues, and ports all multiply (with the default
	// cache.LLCConfig(1) bank this reproduces cache.LLCConfig(cores)
	// exactly), while associativity, latency, and the prefetch port stay
	// per-bank. Shrinking cfg.LLC therefore shrinks the shared cache —
	// the contention tests rely on that.
	llcCfg := cfg.LLC
	llcCfg.SizeKiB *= cores
	llcCfg.MSHRs *= cores
	llcCfg.RQSize *= cores
	llcCfg.WQSize *= cores
	llcCfg.PQSize *= cores
	llcCfg.MaxReads *= cores
	llcCfg.MaxWrites *= cores
	llcCfg.MaxFills *= cores
	if err := checkCache(llcCfg); err != nil {
		return nil, fmt.Errorf("%w (the shared LLC of %d cores)", err, cores)
	}
	channel := dram.New(cfg.DRAM)
	llc := cache.New(llcCfg, channel)
	sharedPool := &mem.RequestPool{}
	channel.SetPool(sharedPool)
	llc.SetPool(sharedPool)

	shared := &SharedDomain{llc: llc, seed: seed, BlackHole: -1, stall: make([]bool, cores)}
	shared.domain = newDomain(nil, []*cache.Cache{llc}, channel, nil)
	shared.arrivals = shared

	sys := &ShardedSystem{Shared: shared, LinkLatency: linkLat}
	for i := 0; i < cores; i++ {
		// Each core gets a disjoint address space, as separate processes
		// would (1 TiB apart — far beyond any generator's regions). The
		// trace replays without bound: cores that finish their measured
		// budget keep running (and keep contending for the shared LLC
		// and DRAM) until the slowest core finishes, as in ChampSim.
		src := trace.Repeat(trace.Offset(mix[i], mem.Addr(i)<<40), 1<<62)
		m := &Machine{cfg: cfg, pool: &mem.RequestPool{}, mem: channel, llc: llc}
		link := &CoreLink{core: i, lat: linkLat, shared: shared, now: &m.now}
		m.l2 = cache.New(cfg.L2, link)
		m.l1d = cache.New(cfg.L1D, m.l2)
		if err := m.buildCore(src, true); err != nil {
			return nil, err
		}
		m.domain = newDomain([]corePair{{core: m.core, gm: m.gm}}, []*cache.Cache{m.l1d, m.l2}, nil, link)
		sys.Cores = append(sys.Cores, m)
		shared.links = append(shared.links, link)
	}
	sys.Links = shared.links
	return sys, nil
}

// PrivateDigests appends this core's private-component state digests in
// PrivateComponentNames order (absent components digest to zero).
func (m *Machine) PrivateDigests(dst []uint64) []uint64 {
	var comps [NumPrivateComponents]uint64
	comps[0] = m.core.StateDigest()
	if m.gm != nil {
		comps[1] = m.gm.StateDigest()
	}
	comps[2] = m.l1d.StateDigest()
	comps[3] = m.l2.StateDigest()
	if m.tlbs != nil {
		comps[4] = m.tlbs.StateDigest()
	}
	if m.bertiPF != nil {
		comps[5] = m.bertiPF.StateDigest()
	}
	comps[6] = m.link.StateDigest()
	return append(dst, comps[:]...)
}

// AdvanceCore advances the private domain to exactly cycle `to`. When
// target > 0 the advance pauses at the first cycle the retired
// instruction count reaches target (the multicore engine's stop
// staging: the barrier computes the global stop cycle from the pause
// cycles, then resumes). Returns the cycle reached and whether the
// target was hit. Steps the lockstep reference when the machine's
// reference engine is selected.
func (m *Machine) AdvanceCore(to mem.Cycle, target uint64) (mem.Cycle, bool) {
	if target > 0 && m.core.Stats.Instructions >= target {
		return m.now, true
	}
	m.resume()
	for m.now < to {
		m.advance(to)
		m.checkWindow()
		if target > 0 && m.core.Stats.Instructions >= target {
			return m.now, true
		}
	}
	return m.now, false
}
