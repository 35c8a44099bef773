// Package attack demonstrates the threat model of the paper (§II-A): a
// Spectre-style transient-execution attacker leaking a secret through
// the cache state — directly, or via a speculatively-trained hardware
// prefetcher (the MuonTrap/GhostMinion prefetch attack the paper's
// on-commit prefetching defeats).
//
// The harness drives the single-core sim.Machine the figures simulate,
// built around a core with no trace: the attacker primes and probes
// with committed loads and measures their latency (an architectural
// capability); the victim executes transient loads that are
// subsequently squashed. Loads enter the machine's load port and commit
// through its commit path, and the machine's own access and commit
// hooks train the prefetcher. On a non-secure hierarchy the transient
// fills (and any speculative prefetcher activity) survive the squash
// and the probe recovers the secret; on GhostMinion the speculative
// state lives only in the GM and dies with the squash, and an on-commit
// prefetcher is never trained on transient loads at all.
package attack

import (
	"fmt"

	"secpref/internal/cpu"
	"secpref/internal/mem"
	"secpref/internal/probe"
	"secpref/internal/sim"
)

// Config selects the defended or undefended system and the prefetcher
// discipline.
type Config struct {
	// Secure selects the GhostMinion hierarchy.
	Secure bool
	// Prefetcher optionally attaches a prefetcher at its home level
	// ("" or "none" = none; "ip-stride" is the canonical attack vector).
	Prefetcher string
	// OnCommitPrefetch trains/triggers the prefetcher only at commit
	// (the secure discipline); otherwise it trains on every access,
	// including transient ones. Without a prefetcher it changes nothing.
	OnCommitPrefetch bool
	// Obs, if non-nil, observes the run: it is attached to every
	// component of the machine, and the harness itself emits the
	// core-side lifecycle of its loads (EvIssue/EvFill/EvCommit).
	Obs probe.Observer
}

// prefetching reports whether cfg names a prefetcher.
func (cfg Config) prefetching() bool { return cfg.Prefetcher != "" && cfg.Prefetcher != "none" }

// System is a machine under attack-harness control.
type System struct {
	m   *sim.Machine
	obs probe.Observer
	seq uint64
}

// NewSystem builds the default single-core machine with cfg's security,
// prefetcher and training discipline.
func NewSystem(cfg Config) (*System, error) {
	sc := sim.DefaultConfig()
	sc.Secure, sc.Prefetcher = cfg.Secure, cfg.Prefetcher
	if cfg.OnCommitPrefetch && cfg.prefetching() {
		sc.Mode = sim.ModeOnCommit
	}
	m, err := sim.NewDriven(sc, cfg.Obs)
	if err != nil {
		return nil, err
	}
	return &System{m: m, obs: cfg.Obs}, nil
}

// loadBudget is how many cycles one load or commit may take before the
// harness declares the machine wedged.
const loadBudget mem.Cycle = 1_000_000

// load issues one load (speculative path in the secure system) and
// waits for data, returning the request with its observed latency.
// spec marks the load as wrong-path work that will later be squashed
// (victim transient loads); committed attacker loads pass false.
func (s *System) load(line mem.Line, ip mem.Addr, spec bool) (*mem.Request, mem.Cycle, error) {
	start := s.m.Now()
	s.seq++
	if s.obs != nil {
		s.obs.Event(probe.Event{
			Kind: probe.EvIssue, Site: probe.SiteCore, Cycle: start,
			Seq: s.seq, Line: line, IP: ip, Req: mem.KindLoad, Spec: spec,
		})
	}
	done := false
	r := &mem.Request{
		Line:      line,
		IP:        ip,
		Kind:      mem.KindLoad,
		Issued:    start,
		Timestamp: s.seq,
		Owner:     mem.CompleterFunc(func(*mem.Request) { done = true }),
	}
	if !s.m.IssueLoad(r) {
		return nil, 0, fmt.Errorf("attack: load port rejected line %#x at cycle %d", uint64(line), start)
	}
	if !s.m.Drive(start+loadBudget, func() bool { return done }) {
		return nil, 0, fmt.Errorf("attack: load of line %#x issued at cycle %d did not complete in %d cycles", uint64(line), start, loadBudget)
	}
	lat := s.m.Now() - start
	if s.obs != nil {
		s.obs.Event(probe.Event{
			Kind: probe.EvFill, Site: probe.SiteCore, Cycle: s.m.Now(),
			Seq: r.Timestamp, Line: line, IP: ip, Req: mem.KindLoad,
			Level: r.ServedBy, Aux: uint64(lat), Spec: spec,
		})
	}
	return r, lat, nil
}

// CommittedLoad performs an architectural load: access, then commit
// through the machine's commit path (the GhostMinion commit engine in
// the secure system, and on-commit prefetcher training).
func (s *System) CommittedLoad(line mem.Line, ip mem.Addr) (mem.Cycle, error) {
	r, lat, err := s.load(line, ip, false)
	if err != nil {
		return 0, err
	}
	ci := cpu.CommitInfo{
		Line: line, IP: ip, Seq: r.Timestamp, AccessCycle: r.Issued,
		HitLevel: r.ServedBy, FetchLat: r.FillLat, HitPrefetched: r.HitPrefetched,
		WasMiss: r.ServedBy > mem.LvlL1D, MergedPrefetch: r.MergedPrefetch,
	}
	committed := s.m.Drive(s.m.Now()+loadBudget, func() bool {
		ci.CommitCycle = s.m.Now()
		return s.m.CommitLoad(ci)
	})
	if !committed {
		return 0, fmt.Errorf("attack: commit of line %#x blocked for %d cycles", uint64(line), loadBudget)
	}
	if s.obs != nil {
		s.obs.Event(probe.Event{
			Kind: probe.EvCommit, Site: probe.SiteCore, Cycle: s.m.Now(),
			Seq: r.Timestamp, Line: line, IP: ip, Req: mem.KindLoad,
		})
	}
	s.m.Drive(s.m.Now()+64, nil) // let the commit's traffic settle
	return lat, nil
}

// TransientLoads executes the victim's speculative loads and then
// squashes them, as a mispredicted branch would. On the non-secure
// system the fills land in the hierarchy; on GhostMinion they land in
// the GM and are invalidated by the squash. An on-access prefetcher is
// trained by these loads; an on-commit prefetcher is not.
func (s *System) TransientLoads(lines []mem.Line, ip mem.Addr) error {
	startSeq := s.seq + 1
	for _, l := range lines {
		if _, _, err := s.load(l, ip, true); err != nil {
			return err
		}
	}
	// Squash: transient instructions never commit.
	s.m.Squash(startSeq)
	s.m.Drive(s.m.Now()+512, nil) // let in-flight traffic settle
	return nil
}

// ProbeLatency measures the access latency of a line the attacker
// architecturally loads (prime+probe timing measurement).
func (s *System) ProbeLatency(line mem.Line, ip mem.Addr) (mem.Cycle, error) {
	return s.CommittedLoad(line, ip)
}

// CachedThreshold is the latency below which a probe is considered a
// cache hit (L1D/L2 service vs. LLC/DRAM).
const CachedThreshold = 30
