package sim

import (
	"fmt"

	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/stats"
	"secpref/internal/trace"
)

// Probes configures the observability attachments for one run. The zero
// value attaches nothing: every component's observer field stays nil and
// the hot paths pay only their branch-on-nil guard (RunProbed with zero
// Probes is exactly Run).
//
// Probes deliberately lives outside Config: observers are runtime
// attachments, not part of the simulated system's identity, so Config
// stays comparable/serializable and results from probed and unprobed
// runs of the same Config are directly comparable (and bit-identical —
// see TestRunProbedEquivalence).
type Probes struct {
	// Observer receives fine-grained hot-path events from every site
	// (core, GM, cache levels, DRAM). Use probe.Fanout to attach several.
	Observer probe.Observer
	// Window receives cumulative counter snapshots at instruction-window
	// boundaries of the measured phase (warmup is never sampled), plus
	// one final snapshot at run end.
	Window probe.WindowObserver
	// WindowInstrs is the sampling interval in retired instructions;
	// 0 means DefaultWindowInstrs.
	WindowInstrs uint64
	// Profile, if set, accumulates engine-attribution counters for the
	// whole run (warmup included): per-rank tick/integration splits,
	// wake-poke causes, re-arm outcomes, and gap-size histograms. One
	// Profile belongs to one run; use observatory.Aggregate to combine
	// across a campaign.
	Profile *observatory.Profile
	// Digest, if set, receives the per-component architectural-state
	// digest vector every DigestEvery cycles, from cycle zero (warmup
	// included, so streams from two engines are comparable end to end).
	Digest observatory.DigestSink
	// DigestEvery is the digest interval in cycles; 0 means
	// DefaultDigestEvery.
	DigestEvery mem.Cycle
	// ReferenceEngine runs the lockstep tick-every-cycle engine instead
	// of the calendar-queue event engine. Results and digest streams
	// must be bit-identical between the two; the divergence machinery
	// exists to localize any case where they are not.
	ReferenceEngine bool
}

// DefaultWindowInstrs is the sampling interval when Probes.WindowInstrs
// is zero.
const DefaultWindowInstrs = 1000

// attachObserver points every component's observer field at o.
func (m *Machine) attachObserver(o probe.Observer) {
	if o == nil {
		return
	}
	m.obs = o
	m.core.Obs = o
	if m.gm != nil {
		m.gm.Obs = o
	}
	m.l1d.Obs = o
	m.l2.Obs = o
	m.llc.Obs = o
	m.mem.Obs = o
}

// armWindows starts interval sampling. Called after warmup's stats
// reset, so samples count from the start of the measured phase.
func (m *Machine) armWindows(w probe.WindowObserver, every uint64) {
	if w == nil {
		return
	}
	if every == 0 {
		every = DefaultWindowInstrs
	}
	m.winObs = w
	m.winEvery = every
	m.winNext = m.core.Stats.Instructions + every
	m.winStart = m.now
}

// sampleWindow assembles the cumulative counter snapshot and hands it to
// the window observer. All counters are measured-phase cumulative
// (resetStats zeroed them at the warmup boundary), so consecutive
// samples difference into per-interval rates.
func (m *Machine) sampleWindow() {
	// The first level the core observes: the GM on a secure system.
	first := &m.l1d.Stats
	demandMisses := m.l1d.Stats.DemandMisses()
	if m.gm != nil {
		first = &m.gm.Stats
		demandMisses = m.gm.Stats.Misses[mem.KindLoad]
	}
	l2Misses := m.l2.Stats.DemandMisses() + m.l2.Stats.Misses[mem.KindRefetch]
	if m.cfg.Secure {
		l2Misses = m.l2.Stats.SpecMisses
	}
	home := m.homeCache()
	s := probe.Sample{
		Core:           m.winCore,
		Cycle:          uint64(m.now - m.winStart),
		Instructions:   m.core.Stats.Instructions,
		Loads:          m.core.Stats.Loads,
		DemandMisses:   demandMisses,
		L2DemandMisses: l2Misses,
		MissLatSum:     first.DemandMissLatSum,
		MissLatCnt:     first.DemandMissLatCnt,
		MSHROccupancy:  home.Stats.MSHROccupancy,
		MSHRFullCycles: home.Stats.MSHRFullCycles,
		MSHRCycles:     home.Stats.Cycles,
		PrefIssued:     home.Stats.PrefIssued,
		CommitGMHits:   m.core.Stats.CommitGMHits,
		CommitGMMisses: m.core.Stats.CommitGMMisses,
		SUFDrops:       m.core.Stats.SUFDrops,
	}
	// Prefetch fills aggregate from the home level down, matching
	// Result.PrefAccuracy (prefetchers legitimately fill deeper). In a
	// sharded system the LLC and DRAM belong to the shared domain, which
	// advances on another goroutine mid-epoch: the per-core sample stops
	// at the private L2 and leaves DRAMReads zero — per-core
	// shared-domain activity is the interference observatory's job.
	levels := [...]*stats.CacheStats{&m.l1d.Stats, &m.l2.Stats, &m.llc.Stats}
	n := len(levels)
	if m.link != nil {
		n-- // shared LLC excluded from per-core samples
	} else {
		s.DRAMReads = m.mem.Stats.Reads
	}
	for _, cs := range levels[int(home.Level()):n] {
		s.PrefFilled += cs.PrefFilled
		s.PrefUseful += cs.PrefUseful
		s.PrefLate += cs.PrefLate
	}
	if m.gm != nil {
		s.PrefLate += m.gm.Stats.PrefLate
	}
	m.winObs.Window(s)
	m.winLast = s.Instructions
	for m.winNext <= s.Instructions {
		m.winNext += m.winEvery
	}
	if m.prof != nil {
		m.prof.TrackSample(uint64(m.now))
	}
}

// checkWindow samples the window series when the retired instruction
// count crossed the next boundary. Every run loop calls it after every
// advance; instructions only retire on core ticks, so the crossing cycle
// is always visited and the sample point is engine-invariant (and, on
// sharded systems, worker- and interval-invariant).
func (m *Machine) checkWindow() {
	if m.winObs != nil && m.core.Stats.Instructions >= m.winNext {
		m.sampleWindow()
	}
}

// flushWindow emits the final (usually partial) window at run end.
func (m *Machine) flushWindow() {
	if m.winObs != nil && m.core.Stats.Instructions > m.winLast {
		m.sampleWindow()
	}
}

// RunProbed executes the configured simulation with observers attached.
// Observers see warmup-phase events (the tracer's ring keeps the newest
// anyway); window sampling covers only the measured phase. Attaching
// probes never changes the simulated outcome: observers are read-only
// and nothing is read back from them.
func RunProbed(cfg Config, src trace.Source, p Probes) (*Result, error) {
	m, err := NewMachine(cfg, src)
	if err != nil {
		return nil, err
	}
	start, err := runPhases([]*Machine{m}, p)
	if err != nil {
		return nil, fmt.Errorf("%w (trace %s, %s)", err, src.Name(), cfg.Label())
	}
	return m.result(src.Name(), m.now-start), nil
}

// runPhases is the run sequence every single-core and SMT run shares,
// on the domain of ms[0] (the SMT core's threads share it): attach p,
// warm up until every core has retired WarmupInstrs, zero every
// machine's counters, arm window sampling, then run until every core
// has retired MaxInstrs. It returns the cycle the measured phase
// started. p.ReferenceEngine, like UseReferenceEngine beforehand,
// selects the reference engine.
func runPhases(ms []*Machine, p Probes) (mem.Cycle, error) {
	m := ms[0]
	if p.ReferenceEngine {
		m.UseReferenceEngine(true)
	}
	m.attachObserver(p.Observer)
	m.attachProfile(p.Profile, rankNames[:])
	m.digests.Arm(p.Digest, p.DigestEvery, ComponentNames[:])
	budget := m.cfg.CycleBudget()

	if w := m.cfg.WarmupInstrs; w > 0 {
		if err := m.run(uint64(w), budget, mem.NoEvent); err != nil {
			return 0, fmt.Errorf("warmup: %w", err)
		}
		for _, t := range ms {
			t.resetStats()
		}
	}
	m.armWindows(p.Window, p.WindowInstrs)

	start := m.now
	if err := m.run(uint64(m.cfg.MaxInstrs), budget, mem.NoEvent); err != nil {
		return 0, err
	}
	m.flushWindow()
	if m.classifier != nil {
		m.classifier.Finalize()
	}
	return start, nil
}
