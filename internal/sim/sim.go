package sim

import (
	"errors"
	"fmt"

	"secpref/internal/cache"
	seccore "secpref/internal/core"
	"secpref/internal/cpu"
	"secpref/internal/dram"
	"secpref/internal/energy"
	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/prefetch"
	"secpref/internal/prefetch/berti"
	"secpref/internal/probe"
	"secpref/internal/stats"
	"secpref/internal/tlb"
	"secpref/internal/trace"
)

// ErrNoProgress reports a wedged simulation (a modeling bug, not a
// workload property); it aborts rather than spinning forever.
var ErrNoProgress = errors.New("sim: no instruction retired for too long")

// ErrCycleBudget reports a run whose clock passed its configuration's
// cycle budget (Config.CycleBudget).
var ErrCycleBudget = errors.New("sim: cycle budget exhausted")

// Machine is one assembled single-core system. Its embedded domain
// holds the clock and advances the components; the sharded builders
// reuse Machine as one core's private slice of a multi-core system.
type Machine struct {
	domain
	cfg Config
	// pool is the machine-wide request free list; every component
	// allocates and recycles mem.Requests through it.
	pool *mem.RequestPool

	core *cpu.Core
	gm   *ghostminion.GM
	l1d  *cache.Cache
	l2   *cache.Cache
	llc  *cache.Cache
	mem  *dram.DRAM
	tlbs *tlb.Hierarchy
	// loads is the core's load port: the GM on a secure system, the
	// L1D otherwise.
	loads cpu.LoadPort

	pf prefetch.Prefetcher
	// home is the cache level pf lives at (the L1D without one); dist
	// is its distance knob, nil unless it has one.
	home       mem.Level
	dist       *prefetch.Distance
	bertiPF    *berti.Prefetcher
	shadow     prefetch.Prefetcher
	shadowBert *berti.Prefetcher
	classifier *prefetch.Classifier
	monitor    *seccore.LatenessMonitor
	xlq        *seccore.XLQ
	suf        *seccore.SUF

	// obs receives prefetcher-training events (EvTrain) emitted by the
	// machine itself; the components' own Obs fields are set alongside
	// it by attachObserver. Nil means disabled.
	obs probe.Observer

	// Interval sampling state (armWindows / sampleWindow in probes.go);
	// winObs nil means disabled and the run loop pays one nil check.
	winObs   probe.WindowObserver
	winEvery uint64
	winNext  uint64
	winLast  uint64
	winStart mem.Cycle
	winCore  int // core index stamped onto samples (sharded systems)

	// digests is the rolling state-digest stream (observatory.go);
	// unarmed, the run loop pays one nil check.
	digests DigestStream

	// progress is the wedge tracker. The run loop feeds it the domain's
	// total retired count; on a sharded system each barrier feeds it
	// this core's count (CheckHealth).
	progress progress
}

type l1dLoadPort struct{ c *cache.Cache }

func (p l1dLoadPort) IssueLoad(r *mem.Request) bool { return p.c.Enqueue(r) }

type l1dStorePort struct{ c *cache.Cache }

func (p l1dStorePort) IssueStore(r *mem.Request) bool { return p.c.Enqueue(r) }

// NewMachine assembles a system per cfg, reading instructions from src.
// The source is wrapped so it repeats if shorter than the requested
// instruction count.
func NewMachine(cfg Config, src trace.Source) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// An empty source would silently simulate zero instructions and
	// surface much later as a confusing ErrNoProgress; reject it here.
	src, err := trace.NonEmpty(src)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Slack covers retire-width overshoot at the warmup boundary (the
	// warmup loop can retire a few instructions past its target).
	total := cfg.WarmupInstrs + cfg.MaxInstrs + 64
	return build(cfg, trace.Repeat(src, total))
}

// NewDriven assembles the system of cfg around a core with no trace,
// for a driver that issues, commits and squashes loads itself
// (IssueLoad, CommitLoad, Squash) and steps the machine with Drive.
// obs, if non-nil, observes every component, as Probes.Observer does.
func NewDriven(cfg Config, obs probe.Observer) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := build(cfg, trace.NewSource(&trace.Trace{}))
	if err != nil {
		return nil, err
	}
	m.attachObserver(obs)
	return m, nil
}

// build assembles the single-core system of cfg around a core reading
// src.
func build(cfg Config, src trace.Source) (*Machine, error) {
	m := &Machine{cfg: cfg, pool: &mem.RequestPool{}}
	m.mem = dram.New(cfg.DRAM)
	m.llc = cache.New(cfg.LLC, m.mem)
	m.l2 = cache.New(cfg.L2, m.llc)
	m.l1d = cache.New(cfg.L1D, m.l2)
	m.mem.SetPool(m.pool)
	m.llc.SetPool(m.pool)
	if err := m.buildCore(src, true); err != nil {
		return nil, err
	}
	m.domain = newDomain([]corePair{{core: m.core, gm: m.gm}}, []*cache.Cache{m.l1d, m.l2, m.llc}, m.mem, nil)
	return m, nil
}

// buildCore assembles the core stack on top of m's L1D and L2: the GM
// with its update filter (SUF or full update) on a secure system, the
// core, the TLB, the request-pool wiring, the prefetcher (when
// withPrefetcher is set; SMT threads share one) and the commit hook.
func (m *Machine) buildCore(src trace.Source, withPrefetcher bool) error {
	m.loads = l1dLoadPort{m.l1d}
	if m.cfg.Secure {
		var filter ghostminion.Filter = ghostminion.FullUpdate{}
		if m.cfg.SUF {
			m.suf = &seccore.SUF{}
			filter = m.suf
		}
		m.gm = ghostminion.New(m.cfg.GM, m.l1d, filter)
		m.gm.SetPool(m.pool)
		m.loads = m.gm
	}
	m.core = cpu.New(m.cfg.Core, src, m.loads, l1dStorePort{m.l1d})
	m.core.SetPool(m.pool)
	if !m.cfg.DisableTLB {
		m.tlbs = tlb.New(m.cfg.TLB)
		m.core.TLB = m.tlbs
	}
	m.l1d.SetPool(m.pool)
	m.l2.SetPool(m.pool)
	if withPrefetcher {
		if err := m.buildPrefetcher(); err != nil {
			return err
		}
	}
	m.core.OnCommitLoad = m.CommitLoad
	return nil
}

// homeCache returns the cache level the prefetcher lives at.
func (m *Machine) homeCache() *cache.Cache {
	if m.home == mem.LvlL2 {
		return m.l2
	}
	return m.l1d
}

func (m *Machine) buildPrefetcher() error {
	if prefetch.IsNone(m.cfg.Prefetcher) {
		return nil
	}
	i := specIndex(m.cfg.Prefetcher)
	if i < 0 {
		return fmt.Errorf("sim: unknown prefetcher %q (known: %v)", m.cfg.Prefetcher, PrefetcherNames())
	}
	spec := Prefetchers[i]
	m.home = spec.Home
	// The issuer routes into the home cache's prefetch queue and
	// notifies the classifier of real issues. On the secure system,
	// commit-time prefetches probe the GM first: a line whose data is
	// already speculatively resident is bound to reach L1D via the
	// commit path, so fetching it again from the hierarchy would only
	// duplicate traffic (the commit engine performs the same lookup).
	issuer := func(line mem.Line, ip mem.Addr, fill mem.Level) bool {
		if m.classifier != nil {
			m.classifier.OnRealIssue(line, m.now)
		}
		if m.gm != nil && m.cfg.Mode != ModeOnAccess && m.gm.Contains(line) {
			return true // satisfied by GM-resident data
		}
		return m.homeCache().Prefetch(line, ip, fill, m.now)
	}
	m.pf, m.dist = spec.New(issuer)
	if b, ok := m.pf.(*berti.Prefetcher); ok {
		m.bertiPF = b
		b.MSHRFree = m.l1d.MSHRFree
	}

	// Timely-secure machinery for non-self-timing prefetchers.
	if m.cfg.Mode == ModeTimelySecure {
		if m.dist != nil {
			if m.cfg.LatenessThreshold > 0 {
				m.dist.Lateness = m.cfg.LatenessThreshold
			}
			interval := m.cfg.LatenessInterval
			if interval == 0 {
				interval = seccore.IntervalFor(m.home)
			}
			home := m.homeCache()
			m.monitor = seccore.NewLatenessMonitor(m.dist, interval, func() (uint64, uint64) {
				return home.Stats.PrefLate, home.Stats.PrefUseful
			})
		}
		if m.bertiPF != nil {
			m.xlq = &seccore.XLQ{}
		}
	}

	if m.cfg.Classify {
		m.classifier = prefetch.NewClassifier()
		m.shadow, _ = spec.New(m.classifier.ShadowIssue)
		m.classifier.AttachShadow(m.shadow)
		if sb, ok := m.shadow.(*berti.Prefetcher); ok {
			m.shadowBert = sb
		}
	}

	m.wireTraining()
	return nil
}

// wireTraining attaches the access-stream hooks: on-access training for
// ModeOnAccess, shadow training for the classifier, Berti fill
// observation, and the lateness monitor's miss/phase feed.
func (m *Machine) wireTraining() {
	home := m.homeCache()

	accessEv := func(ai cache.AccessInfo) prefetch.Event {
		return prefetch.Event{
			Line:          ai.Line,
			IP:            ai.IP,
			Hit:           ai.Hit,
			HitPrefetched: ai.HitPrefetched,
			PrefFetchLat:  ai.PrefFetchLat,
			Cycle:         ai.Cycle,
			AccessCycle:   ai.Cycle,
		}
	}

	onAccess := func(ai cache.AccessInfo) {
		ev := accessEv(ai)
		if m.cfg.Mode == ModeOnAccess {
			// On-access training consumes the access before the load
			// commits: speculative provenance. (Shadow training below is
			// measurement-only state and is not audited.)
			if m.obs != nil {
				m.obs.Event(probe.Event{
					Kind: probe.EvTrain, Site: probe.SitePF, Cycle: ai.Cycle,
					Seq: ai.Timestamp, Line: ai.Line, IP: ai.IP, Req: ai.Kind,
					Hit: ai.Hit, Spec: true,
				})
			}
			m.pf.Train(ev)
			if m.bertiPF != nil && ai.HitPrefetched {
				// Hit on a prefetched line: the stored latency trains
				// the timely-delta search immediately.
				m.bertiPF.Observe(ai.IP, ai.Line, ai.Cycle, ai.PrefFetchLat)
			}
		}
		if m.shadow != nil {
			m.shadow.Train(ev)
			if m.shadowBert != nil && ai.HitPrefetched {
				m.shadowBert.Observe(ai.IP, ai.Line, ai.Cycle, ai.PrefFetchLat)
			}
		}
		if m.monitor != nil && !ai.Hit {
			m.monitor.OnMiss(ai.IP)
		}
		if m.classifier != nil && !ai.Hit {
			// Classification happens at miss time (the paper's
			// definition is anchored to "the time of a demand cache
			// miss"); whether the on-commit prefetcher triggers the
			// line resolves the commit-late vs missed-opportunity split
			// afterwards.
			m.classifier.OnDemandMiss(ai.Line, ai.Merged, ai.Cycle)
		}
	}

	if m.cfg.Secure {
		home.OnSpecAccess = onAccess
		if home == m.l1d {
			// GM hits never reach L1D, so the on-access trigger stream
			// for L1D prefetchers also includes them (hits trigger
			// issuing but do not insert history).
			m.gm.OnHit = func(line mem.Line, ip mem.Addr, cycle mem.Cycle, ts uint64) {
				onAccess(cache.AccessInfo{Line: line, IP: ip, Kind: mem.KindLoad, Hit: true, Cycle: cycle, Timestamp: ts})
			}
		}
	} else {
		home.OnAccess = onAccess
	}

	// Berti's fetch-latency observation (on-access mode and shadow).
	if m.cfg.Secure && m.gm != nil {
		m.gm.OnFill = func(line mem.Line, lat mem.Cycle, ip mem.Addr, accessed mem.Cycle) {
			if m.cfg.Mode == ModeOnAccess && m.bertiPF != nil {
				m.bertiPF.Observe(ip, line, accessed, lat)
			}
			if m.shadowBert != nil {
				m.shadowBert.Observe(ip, line, accessed, lat)
			}
		}
	} else {
		home.OnFill = func(fi cache.FillInfo) {
			if fi.Prefetch {
				return
			}
			if m.cfg.Mode == ModeOnAccess && m.bertiPF != nil {
				m.bertiPF.Observe(fi.IP, fi.Line, fi.ReqIssued, fi.Latency)
			}
			if m.shadowBert != nil {
				m.shadowBert.Observe(fi.IP, fi.Line, fi.ReqIssued, fi.Latency)
			}
		}
	}
}

// CommitLoad retires one load: GhostMinion's commit engine (with SUF)
// on a secure system, then on-commit or TSB prefetcher training. It
// does nothing and reports false while the commit engine is full. It is
// the core's retirement hook, and a driver's commit (NewDriven).
func (m *Machine) CommitLoad(ci cpu.CommitInfo) bool {
	if m.gm != nil {
		if !m.gm.CanCommit() {
			return false
		}
		m.gm.Commit(ci.Line, ci.Seq, ci.HitLevel, &m.core.Stats)
	}
	m.core.Stats.CommitHitLevel[ci.HitLevel]++
	if m.pf != nil {
		m.commitTrain(ci)
	}
	return true
}

// IssueLoad hands a driver's load to the core's load port (NewDriven)
// and reports whether the port accepted it.
func (m *Machine) IssueLoad(r *mem.Request) bool { return m.loads.IssueLoad(r) }

// Squash discards the speculative state of every load with timestamp
// seq or later, as a mispredicted branch's squash does (NewDriven). The
// GM announces its own squash; a non-secure system keeps no speculative
// state, so the machine announces the architectural event itself.
func (m *Machine) Squash(seq uint64) {
	if m.gm != nil {
		m.gm.Squash(seq)
	} else if m.obs != nil {
		m.obs.Event(probe.Event{Kind: probe.EvSquash, Site: probe.SiteCore, Cycle: m.now, Seq: seq, Spec: true})
	}
}

// Drive advances a driven machine (NewDriven) until done reports true
// or the clock reaches until, and reports whether done did; a nil done
// runs to until. It primes the calendar afresh: the driver hands the
// components work between calls, which a calendar primed earlier cannot
// see.
func (m *Machine) Drive(until mem.Cycle, done func() bool) bool {
	if !m.noSkip {
		m.prime()
	}
	for {
		if done != nil && done() {
			return true
		}
		if m.now >= until {
			return false
		}
		m.advance(until)
	}
}

// commitTrain feeds the prefetcher at retirement for the commit-time
// modes.
func (m *Machine) commitTrain(ci cpu.CommitInfo) {
	if m.cfg.Mode == ModeOnAccess {
		return
	}
	isL2 := m.home == mem.LvlL2
	ev := prefetch.Event{
		Line:          ci.Line,
		IP:            ci.IP,
		Hit:           !ci.WasMiss,
		HitPrefetched: ci.HitPrefetched,
		PrefFetchLat:  ci.FetchLat,
		Cycle:         ci.CommitCycle,
		AccessCycle:   ci.AccessCycle,
		FetchLat:      ci.FetchLat,
	}
	emitTrain := func(hit bool) {
		if m.obs != nil {
			m.obs.Event(probe.Event{
				Kind: probe.EvTrain, Site: probe.SitePF, Cycle: ci.CommitCycle,
				Seq: ci.Seq, Line: ci.Line, IP: ci.IP, Req: mem.KindLoad,
				Hit: hit,
			})
		}
	}
	if isL2 {
		// L2 prefetchers only observe the post-L1D stream.
		if ci.HitLevel < mem.LvlL2 {
			return
		}
		ev.Hit = ci.HitLevel == mem.LvlL2
		emitTrain(ev.Hit)
		m.pf.Train(ev)
		return
	}
	emitTrain(ev.Hit)
	m.pf.Train(ev)

	if m.bertiPF == nil {
		return
	}
	trainable := ci.WasMiss || ci.HitPrefetched
	if !trainable {
		return
	}
	switch m.cfg.Mode {
	case ModeOnCommit:
		// Naive on-commit Berti: the observed "latency" is the GM-to-
		// L1D on-commit write latency, and the reference time is the
		// commit — the misleading training of §V-B.
		m.bertiPF.Observe(ci.IP, ci.Line, ci.CommitCycle, m.cfg.GM.Latency)
	case ModeTimelySecure:
		// TSB: the X-LQ carries the access timestamp and the true fetch
		// latency to the GM from the speculative phase to commit.
		m.xlq.Record(ci.LQID, ci.AccessCycle, ci.HitPrefetched, ci.FetchLat)
		if !ci.HitPrefetched {
			m.xlq.SetLatency(ci.LQID, ci.FetchLat)
		}
		access, lat, _, ok := m.xlq.Read(ci.LQID, ci.CommitCycle)
		if ok {
			m.bertiPF.Observe(ci.IP, ci.Line, access, lat)
		}
		m.xlq.Release(ci.LQID)
	}
}

// resetStats zeroes every counter block (end of warmup).
func (m *Machine) resetStats() {
	m.core.Stats = stats.CoreStats{}
	m.l1d.Stats = stats.CacheStats{}
	m.l2.Stats = stats.CacheStats{}
	m.llc.Stats = stats.CacheStats{}
	m.mem.Stats = stats.DRAMStats{}
	if m.gm != nil {
		m.gm.Stats = stats.CacheStats{}
	}
	if m.tlbs != nil {
		m.tlbs.Stats = stats.TLBStats{}
	}
	if m.suf != nil {
		*m.suf = seccore.SUF{}
	}
	if m.monitor != nil {
		m.monitor.Rebase()
	}
	m.progress = progress{at: m.now}
}

// Run executes the configured simulation to completion. It is
// RunProbed with nothing attached (see probes.go).
func Run(cfg Config, src trace.Source) (*Result, error) {
	return RunProbed(cfg, src, Probes{})
}

// wedgeWindow is how many cycles without a retirement the run loop
// tolerates before declaring the simulation wedged.
const wedgeWindow = 500_000

// run is the run loop of a single-core or SMT domain: it advances until
// every core has retired target instructions or run out of trace, or
// the clock reaches until. It fails when the wedge tracker sees the
// domain retire nothing for wedgeWindow cycles or the clock passes
// maxCycles.
//
// On the event engine each advance jumps to the calendar's earliest
// wake, clamped to until, the digest boundary, the wedge boundary and
// the cycle budget. A fully quiescent machine (empty trace tail, every
// component idle, calendar empty) therefore makes one bounded jump to
// the wedge or budget boundary, where the error fires on exactly the
// cycle the reference engine reports it.
func (m *Machine) run(target uint64, maxCycles, until mem.Cycle) error {
	if !m.noSkip {
		// Rebuilt each run: the warmup boundary, stats reset and window
		// arming all happen between runs.
		m.prime()
	}
	for {
		retired, done := m.retired(target)
		if err := m.health(retired, maxCycles); err != nil {
			return err
		}
		if done || m.now >= until {
			return nil
		}
		limit := until
		if w := m.progress.at + wedgeWindow + 1; w < limit {
			limit = w
		}
		if maxCycles < limit {
			limit = maxCycles + 1
		}
		m.advance(m.digests.Clamp(limit))
		if m.digests.Due(m.now) {
			m.emitDigests()
		}
		m.checkWindow()
	}
}

// health feeds the wedge tracker the domain's retired count at the
// current cycle and checks the cycle budget.
func (m *Machine) health(retired uint64, maxCycles mem.Cycle) error {
	if err := m.progress.check(retired, m.now); err != nil {
		return err
	}
	if m.now > maxCycles {
		return fmt.Errorf("%w (%d cycles, %d instructions)", ErrCycleBudget, m.now, retired)
	}
	return nil
}

// CheckHealth audits one core of a sharded system at a barrier: its
// own retirements feed its wedge tracker, so a black-holed core cannot
// hide behind its peers' progress, and the clock must stay within the
// configuration's cycle budget.
func (m *Machine) CheckHealth() error {
	return m.health(m.core.Stats.Instructions, m.cfg.CycleBudget())
}

// progress is the wedge tracker: it remembers the last cycle the
// retired-instruction count moved.
type progress struct {
	count uint64
	at    mem.Cycle
}

// check records count at cycle now and fails once a full wedge window
// has passed without it moving.
func (p *progress) check(count uint64, now mem.Cycle) error {
	if count != p.count {
		p.count, p.at = count, now
	} else if now-p.at > wedgeWindow {
		return ErrNoProgress
	}
	return nil
}

// result assembles the Result snapshot.
func (m *Machine) result(traceName string, cycles mem.Cycle) *Result {
	r := &Result{
		Config:       m.cfg,
		TraceName:    traceName,
		Instructions: m.core.Stats.Instructions,
		Cycles:       uint64(cycles),
		Core:         m.core.Stats,
		L1D:          m.l1d.Stats,
		L2:           m.l2.Stats,
		LLC:          m.llc.Stats,
		DRAM:         m.mem.Stats,
	}
	if m.tlbs != nil {
		r.TLB = m.tlbs.Stats
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	var gmAcc uint64
	if m.gm != nil {
		r.GM = m.gm.Stats
		gmAcc = m.gm.Stats.TotalAccesses()
	}
	r.Energy = energy.Compute(energy.DefaultPerAccess(), gmAcc, &r.L1D, &r.L2, &r.LLC, &r.DRAM)
	if m.classifier != nil {
		r.Class = m.classifier.Class
	}
	if m.monitor != nil {
		r.DistanceAdaptations = m.monitor.Adaptations
		r.PhaseResets = m.monitor.Resets
	}
	if m.dist != nil {
		r.FinalDistance = m.dist.Cur
	}
	if m.suf != nil {
		r.SUFDrops = m.suf.Drops
		r.SUFTrims = m.suf.TrimmedPropagations
	}
	return r
}
