// Package sim wires the substrates into the paper's evaluated systems:
// a single out-of-order core with a non-secure or GhostMinion-secured
// three-level hierarchy, one of five hardware prefetchers trained
// on-access, on-commit, or in timely-secure (TS/TSB) form, optionally
// behind the Secure Update Filter, plus the Fig. 6 shadow classifier.
package sim

import (
	"fmt"

	"secpref/internal/cache"
	"secpref/internal/cpu"
	"secpref/internal/dram"
	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/tlb"
)

// Mode selects when the prefetcher trains and triggers.
type Mode int

const (
	// ModeOnAccess trains and triggers on (speculative) accesses — the
	// conventional, insecure placement.
	ModeOnAccess Mode = iota
	// ModeOnCommit trains and triggers at instruction commit — secure
	// but timeliness-impaired (the paper's gray bars).
	ModeOnCommit
	// ModeTimelySecure is the paper's contribution: on-commit training
	// with the timeliness fix — TSB for Berti, lateness-driven adaptive
	// distance for the others (§V).
	ModeTimelySecure
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOnAccess:
		return "on-access"
	case ModeOnCommit:
		return "on-commit"
	case ModeTimelySecure:
		return "timely-secure"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes one simulated system.
type Config struct {
	// Secure selects the GhostMinion secure cache system.
	Secure bool
	// SUF enables the Secure Update Filter (requires Secure).
	SUF bool
	// Prefetcher names the engine: "none" (or ""), "ip-stride",
	// "ipcp", "bingo", "spp-ppf", "berti".
	Prefetcher string
	// Mode selects the training/trigger point.
	Mode Mode
	// Classify enables the Fig. 6 shadow classifier (adds a second
	// prefetcher instance; measurement only).
	Classify bool

	// WarmupInstrs run before statistics are reset; MaxInstrs then run
	// measured. MaxCycles bounds runaway simulations (0 = 2000 cycles
	// per warmup and measured instruction; see CycleBudget).
	WarmupInstrs int
	MaxInstrs    int
	MaxCycles    mem.Cycle

	Core cpu.Config
	L1D  cache.Config
	L2   cache.Config
	LLC  cache.Config
	GM   ghostminion.Config
	DRAM dram.Config
	// TLB models the Table II dTLB/STLB translation latency on the load
	// path; DisableTLB turns it off (ablation).
	TLB        tlb.HierarchyConfig
	DisableTLB bool

	// LatenessThreshold overrides the TS adaptive-distance trigger
	// (§V-D); zero selects the paper's values (0.14, or 0.05 for
	// Bingo).
	LatenessThreshold float64
	// LatenessInterval overrides the TS monitoring interval in misses;
	// zero selects the paper's values (512 at L1D, 4096 at L2). The
	// paper's intervals assume 200M-instruction runs; laptop-scale runs
	// need proportionally shorter intervals for the adaptation to
	// engage (the experiment harness sets this).
	LatenessInterval uint64
}

// DefaultConfig returns the paper's Table II single-core baseline with
// a 20k-instruction warmup and 100k measured instructions (the paper
// uses 50M/200M; scale with MaxInstrs for longer runs).
func DefaultConfig() Config {
	return Config{
		Prefetcher:   "none",
		Mode:         ModeOnAccess,
		WarmupInstrs: 20_000,
		MaxInstrs:    100_000,
		Core:         cpu.DefaultConfig(),
		L1D:          cache.L1DConfig(),
		L2:           cache.L2Config(),
		LLC:          cache.LLCConfig(1),
		GM:           ghostminion.DefaultConfig(),
		DRAM:         dram.DefaultConfig(),
		TLB:          tlb.DefaultConfig(),
	}
}

// CycleBudget is the clock a run may reach before it fails as runaway:
// MaxCycles, or 2000 cycles per warmup and measured instruction when
// MaxCycles is zero. Every engine (single-core, SMT and multicore)
// enforces this one budget.
func (c Config) CycleBudget() mem.Cycle {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	return mem.Cycle(2000 * (c.WarmupInstrs + c.MaxInstrs))
}

// prefetching reports whether the configuration names a prefetcher;
// "" and "none" both spell no prefetcher.
func (c Config) prefetching() bool { return c.Prefetcher != "" && c.Prefetcher != "none" }

// Validate reports configuration contradictions and sizes the model
// cannot run: each rejected size either panics at build time or wedges
// the run.
func (c Config) Validate() error {
	if c.SUF && !c.Secure {
		return fmt.Errorf("sim: SUF requires the secure cache system")
	}
	if c.Mode != ModeOnAccess && !c.Secure && !c.prefetching() {
		return fmt.Errorf("sim: commit-time modes need a prefetcher or a secure system")
	}
	if c.MaxInstrs <= 0 {
		return fmt.Errorf("sim: MaxInstrs must be positive, got %d", c.MaxInstrs)
	}
	for _, cc := range []cache.Config{c.L1D, c.L2, c.LLC} {
		if err := checkCache(cc); err != nil {
			return err
		}
	}
	if err := positive("core", []size{
		{"ROB", c.Core.ROBSize}, {"LQ", c.Core.LQSize}, {"store buffer", c.Core.StoreBuffer},
		{"dispatch width", c.Core.DispatchWidth}, {"retire width", c.Core.RetireWidth},
		{"loads issued per cycle", c.Core.IssueLoadsPerCycle},
	}); err != nil {
		return err
	}
	if err := positive("DRAM", []size{
		{"banks", c.DRAM.Banks}, {"RQ", c.DRAM.RQSize}, {"WQ", c.DRAM.WQSize},
		{"row buffer KiB", c.DRAM.RowBufKiB}, {"requests per tick", c.DRAM.MaxRequestsPerTick},
	}); err != nil {
		return err
	}
	if c.Secure {
		if err := positive("GhostMinion", []size{
			{"lines", c.GM.Lines}, {"MSHRs", c.GM.MSHRs}, {"commit queue", c.GM.CommitQueue},
		}); err != nil {
			return err
		}
	}
	if !c.DisableTLB {
		for _, l := range []struct {
			name string
			tlb.Config
		}{{"dTLB", c.TLB.L1}, {"STLB", c.TLB.STLB}} {
			if l.Ways <= 0 {
				return fmt.Errorf("sim: %s needs at least one way, got %d", l.name, l.Ways)
			}
			if n := l.Entries / l.Ways; n <= 0 || n&(n-1) != 0 {
				return fmt.Errorf("sim: %s set count %d (%d entries, %d ways) is not a power of two", l.name, n, l.Entries, l.Ways)
			}
		}
	}
	return nil
}

// checkCache rejects a cache the model cannot build or run: no ways, a
// set count that is not a positive power of two, or no MSHRs, queue
// slots or per-cycle bandwidth for a request kind, which leaves such
// requests waiting forever. Only the L1D may have no prefetch queue:
// its prefetches are dropped at issue, while a deeper level's would
// wait for a slot forever.
func checkCache(cc cache.Config) error {
	if cc.Ways <= 0 {
		return fmt.Errorf("sim: %s needs at least one way, got %d", cc.Name, cc.Ways)
	}
	if n := cc.Sets(); n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("sim: %s set count %d (%d KiB, %d ways) is not a power of two", cc.Name, n, cc.SizeKiB, cc.Ways)
	}
	pq := cc.PQSize
	if cc.Level == mem.LvlL1D {
		pq = 1
	}
	return positive(cc.Name, []size{
		{"MSHRs", cc.MSHRs}, {"RQ", cc.RQSize}, {"WQ", cc.WQSize}, {"PQ", pq},
		{"reads per cycle", cc.MaxReads}, {"writes per cycle", cc.MaxWrites}, {"fills per cycle", cc.MaxFills},
	})
}

// size is one count of a component that needs at least one.
type size struct {
	name string
	n    int
}

// positive rejects the first of a component's sizes below one.
func positive(component string, sizes []size) error {
	for _, s := range sizes {
		if s.n <= 0 {
			return fmt.Errorf("sim: %s %s must be positive, got %d", component, s.name, s.n)
		}
	}
	return nil
}

// Label summarizes the configuration the way the paper's legends do.
func (c Config) Label() string {
	sys := "non-secure"
	if c.Secure {
		sys = "secure"
		if c.SUF {
			sys = "secure+SUF"
		}
	}
	if !c.prefetching() {
		return fmt.Sprintf("no-pref/%s", sys)
	}
	return fmt.Sprintf("%s/%s/%s", c.Prefetcher, c.Mode, sys)
}
