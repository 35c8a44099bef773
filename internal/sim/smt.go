package sim

import (
	"fmt"

	"secpref/internal/cache"
	seccore "secpref/internal/core"
	"secpref/internal/dram"
	"secpref/internal/mem"
	"secpref/internal/trace"
)

// BuildSMT assembles a 2-way SMT core: two hardware threads with
// private GMs (speculative state is per-context) sharing one L1D, L2,
// LLC and DRAM channel — the §VII-B configuration where cross-thread
// evictions can invalidate SUF's recorded hit levels. Each thread runs
// its own trace in a disjoint address space.
//
// Thread 0's machine owns the SMT core's domain: both threads'
// core/GM pairs, then the shared levels and DRAM.
func BuildSMT(cfg Config, threads []trace.Source) ([]*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(threads) != 2 {
		return nil, fmt.Errorf("sim: SMT model is 2-way, got %d threads", len(threads))
	}
	channel := dram.New(cfg.DRAM)
	llc := cache.New(cfg.LLC, channel)
	l2 := cache.New(cfg.L2, llc)
	l1d := cache.New(cfg.L1D, l2)
	// One goroutine steps both threads and the shared levels: a single
	// request pool serves the whole SMT system.
	pool := &mem.RequestPool{}
	channel.SetPool(pool)
	llc.SetPool(pool)

	var machines []*Machine
	var pairs []corePair
	for i, src := range threads {
		src = trace.Repeat(trace.Offset(src, mem.Addr(i)<<40), 1<<62)
		m := &Machine{cfg: cfg, pool: pool, mem: channel, llc: llc, l2: l2, l1d: l1d}
		// The SMT core has ONE prefetcher at the shared L1D; thread 0
		// owns it and its access-stream hooks observe both threads'
		// traffic.
		if err := m.buildCore(src, i == 0); err != nil {
			return nil, err
		}
		if i > 0 {
			// Later threads share the engine but keep a private X-LQ
			// (it is part of the per-thread load queue).
			first := machines[0]
			m.pf = first.pf
			m.home = first.home
			m.dist = first.dist
			m.bertiPF = first.bertiPF
			m.monitor = first.monitor
			m.classifier = first.classifier
			if first.xlq != nil {
				m.xlq = &seccore.XLQ{}
			}
		}
		machines = append(machines, m)
		pairs = append(pairs, corePair{core: m.core, gm: m.gm})
	}
	machines[0].domain = newDomain(pairs, []*cache.Cache{l1d, l2, llc}, channel, nil)
	return machines, nil
}

// RunSMT simulates a 2-thread SMT pair until both threads retire the
// configured instruction budget, returning per-thread results. It runs
// the single-core phase sequence on the SMT core's domain.
func RunSMT(cfg Config, threads []trace.Source) ([]*Result, error) {
	machines, err := BuildSMT(cfg, threads)
	if err != nil {
		return nil, err
	}
	start, err := runPhases(machines, Probes{})
	if err != nil {
		return nil, fmt.Errorf("%w (SMT traces %s+%s, %s)", err, threads[0].Name(), threads[1].Name(), cfg.Label())
	}
	return threadResults(machines, threads, start), nil
}

// threadResults assembles each thread's result over the measured phase
// that started at cycle start.
func threadResults(machines []*Machine, threads []trace.Source, start mem.Cycle) []*Result {
	var out []*Result
	for i, m := range machines {
		out = append(out, m.result(threads[i].Name(), machines[0].now-start))
	}
	return out
}
