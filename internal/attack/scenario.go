package attack

import (
	"fmt"

	"secpref/internal/mem"
)

// Outcome reports one attack attempt.
type Outcome struct {
	Secret   int
	Inferred int
	// Leaked is true when the attacker's inference matched the secret.
	Leaked bool
	// Latencies holds the probe latency per candidate (diagnostics).
	Latencies []mem.Cycle
}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	if o.Leaked {
		return fmt.Sprintf("LEAKED secret %d (inferred %d)", o.Secret, o.Inferred)
	}
	return fmt.Sprintf("no leak (secret %d, inferred %d)", o.Secret, o.Inferred)
}

// Address layout: victim data, the attacker-visible probe array, and
// the prefetcher-attack stride base live in disjoint regions far from
// each other.
const (
	probeBase  = mem.Line(0x10_0000)
	strideBase = mem.Line(0x30_0000)
	candidates = 16 // secret index ∈ [0, candidates)

	attackerIP = mem.Addr(0xA000)
	victimIP   = mem.Addr(0xB000)
)

// CandidateStrides are the secret values the stride attack can encode.
// They are primes greater than the prefetch window so that the probed
// continuation line 7*s of one candidate can never alias a line k*s'
// (k <= 8) touched or prefetched under a different candidate secret —
// 7*s = k*s' with s, s' prime and k <= 8 forces k = 7 and s' = s.
var CandidateStrides = []int{11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71}

// SpectreCacheLeak runs the classic flush+reload-style transient leak:
// the victim's squashed load touches probe[secret]; the attacker times
// every probe slot. Probe slots are spaced 64 lines apart so the
// prefetcher cannot mask the signal.
func SpectreCacheLeak(cfg Config, secret int) (Outcome, error) {
	if secret < 0 || secret >= candidates {
		return Outcome{}, fmt.Errorf("attack: secret %d out of range [0,%d)", secret, candidates)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return Outcome{}, err
	}
	return s.cacheLeak(secret)
}

// cacheLeak runs SpectreCacheLeak's scenario on s.
func (s *System) cacheLeak(secret int) (Outcome, error) {
	// Victim transiently loads the secret-dependent probe slot.
	if err := s.TransientLoads([]mem.Line{probeBase + mem.Line((secret+1)*64)}, victimIP); err != nil {
		return Outcome{}, err
	}
	return s.probeCandidates(secret, candidates, func(cand int) mem.Line { return probeBase + mem.Line((cand+1)*64) })
}

// SpectrePrefetchLeak runs the paper's prefetcher-channel attack
// (§II-A, after MuonTrap): the victim's transient loads form a
// secret-dependent stride; a speculatively-trained prefetcher then
// fetches the next elements of that stride into the cache, where the
// attacker finds them — even if the transient fills themselves were
// invisible. On-commit prefetching closes the channel because the
// prefetcher is never trained on transient loads.
func SpectrePrefetchLeak(cfg Config, secret int) (Outcome, error) {
	if secret < 0 || secret >= len(CandidateStrides) {
		return Outcome{}, fmt.Errorf("attack: secret %d out of range [0,%d)", secret, len(CandidateStrides))
	}
	if !cfg.prefetching() {
		return Outcome{}, fmt.Errorf("attack: prefetch leak needs a prefetcher")
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return Outcome{}, err
	}
	return s.prefetchLeak(secret)
}

// prefetchLeak runs SpectrePrefetchLeak's scenario on s.
func (s *System) prefetchLeak(secret int) (Outcome, error) {
	// The victim's transient loads stride by CandidateStrides[secret]
	// lines. An on-access stride prefetcher learns the stride and
	// prefetches ahead of the last transient access.
	stride := CandidateStrides[secret]
	var seq []mem.Line
	for i := 0; i < 6; i++ {
		seq = append(seq, strideBase+mem.Line(i*stride))
	}
	if err := s.TransientLoads(seq, victimIP); err != nil {
		return Outcome{}, err
	}
	s.m.Drive(s.m.Now()+2000, nil) // let the prefetcher's requests land

	// The attacker probes the *continuation* of each candidate stride
	// (line 7*s): only the true stride's continuation was prefetched,
	// and the prime candidate set makes the probes alias-free.
	return s.probeCandidates(secret, len(CandidateStrides), func(cand int) mem.Line {
		return strideBase + mem.Line(7*CandidateStrides[cand])
	})
}

// probeCandidates times the n candidates' probe lines in candidate
// order and infers the secret as the fastest one, if it was cached.
func (s *System) probeCandidates(secret, n int, line func(cand int) mem.Line) (Outcome, error) {
	best, bestLat := -1, mem.Cycle(1<<60)
	lats := make([]mem.Cycle, n)
	for cand := range lats {
		lat, err := s.ProbeLatency(line(cand), attackerIP+mem.Addr(cand))
		if err != nil {
			return Outcome{}, err
		}
		lats[cand] = lat
		if lat < bestLat {
			best, bestLat = cand, lat
		}
	}
	if bestLat >= CachedThreshold {
		best = -1 // nothing was cached: the attacker learned nothing
	}
	return Outcome{Secret: secret, Inferred: best, Leaked: best == secret, Latencies: lats}, nil
}
