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
	// Prefetcher names the engine: "none", "ip-stride", "ipcp",
	// "bingo", "spp-ppf", "berti".
	Prefetcher string
	// Mode selects the training/trigger point.
	Mode Mode
	// Classify enables the Fig. 6 shadow classifier (adds a second
	// prefetcher instance; measurement only).
	Classify bool

	// WarmupInstrs run before statistics are reset; MaxInstrs then run
	// measured. MaxCycles bounds runaway simulations (0 = 1000 cycles
	// per instruction).
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

// Validate reports configuration contradictions.
func (c Config) Validate() error {
	if c.SUF && !c.Secure {
		return fmt.Errorf("sim: SUF requires the secure cache system")
	}
	if c.Mode != ModeOnAccess && !c.Secure && c.Prefetcher == "none" {
		return fmt.Errorf("sim: commit-time modes need a prefetcher or a secure system")
	}
	if c.MaxInstrs <= 0 {
		return fmt.Errorf("sim: MaxInstrs must be positive, got %d", c.MaxInstrs)
	}
	for _, cc := range []cache.Config{c.L1D, c.L2, c.LLC} {
		if cc.Ways <= 0 {
			return fmt.Errorf("sim: %s needs at least one way, got %d", cc.Name, cc.Ways)
		}
		if n := cc.Sets(); n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("sim: %s set count %d (%d KiB, %d ways) is not a power of two", cc.Name, n, cc.SizeKiB, cc.Ways)
		}
	}
	if c.DRAM.Banks <= 0 {
		return fmt.Errorf("sim: DRAM needs at least one bank, got %d", c.DRAM.Banks)
	}
	if c.Secure && c.GM.Lines <= 0 {
		return fmt.Errorf("sim: the GhostMinion needs at least one line, got %d", c.GM.Lines)
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
	if c.Prefetcher == "none" || c.Prefetcher == "" {
		return fmt.Sprintf("no-pref/%s", sys)
	}
	return fmt.Sprintf("%s/%s/%s", c.Prefetcher, c.Mode, sys)
}
