package sim

import (
	"reflect"
	"testing"

	"secpref/internal/mem"
)

// runMachine replicates Run for an explicitly-assembled Machine so the
// test can flip noSkip on an otherwise identical system.
func runMachine(t *testing.T, m *Machine, cfg Config) *Result {
	t.Helper()
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = mem.Cycle(1000 * (cfg.WarmupInstrs + cfg.MaxInstrs))
	}
	if cfg.WarmupInstrs > 0 {
		if err := m.run(m.Instructions()+uint64(cfg.WarmupInstrs), maxCycles, mem.NoEvent); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		m.resetStats()
	}
	start := m.now
	if err := m.run(m.Instructions()+uint64(cfg.MaxInstrs), maxCycles, mem.NoEvent); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.result("t", m.now-start)
}

// TestIdleSkipEquivalence verifies the fast-forward invariant the run
// loop depends on: skipping provably-idle cycles yields a simulation
// bit-identical to stepping through every cycle — same final cycle
// count, same every counter in every component.
func TestIdleSkipEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"nonsecure-nopref", func(c *Config) {}},
		{"secure-nopref", func(c *Config) { c.Secure = true }},
		{"secure-tsb-suf-berti", func(c *Config) {
			c.Secure = true
			c.SUF = true
			c.Prefetcher = "berti"
			c.Mode = ModeTimelySecure
		}},
		{"nonsecure-ipstride", func(c *Config) { c.Prefetcher = "ip-stride" }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.WarmupInstrs = 2000
			cfg.MaxInstrs = 15_000
			tc.mut(&cfg)
			run := func(noSkip bool) *Result {
				m, err := NewMachine(cfg, smokeTrace(t, "bfs-3B", 17_000))
				if err != nil {
					t.Fatal(err)
				}
				m.noSkip = noSkip
				return runMachine(t, m, cfg)
			}
			skipped, stepped := run(false), run(true)
			if !reflect.DeepEqual(skipped, stepped) {
				t.Errorf("skip changed the simulation:\nskip: cycles=%d core=%+v\nstep: cycles=%d core=%+v",
					skipped.Cycles, skipped.Core, stepped.Cycles, stepped.Core)
				if !reflect.DeepEqual(skipped.L1D, stepped.L1D) {
					t.Errorf("L1D:\nskip: %+v\nstep: %+v", skipped.L1D, stepped.L1D)
				}
				if !reflect.DeepEqual(skipped.L2, stepped.L2) {
					t.Errorf("L2:\nskip: %+v\nstep: %+v", skipped.L2, stepped.L2)
				}
				if !reflect.DeepEqual(skipped.LLC, stepped.LLC) {
					t.Errorf("LLC:\nskip: %+v\nstep: %+v", skipped.LLC, stepped.LLC)
				}
				if !reflect.DeepEqual(skipped.DRAM, stepped.DRAM) {
					t.Errorf("DRAM:\nskip: %+v\nstep: %+v", skipped.DRAM, stepped.DRAM)
				}
				if !reflect.DeepEqual(skipped.GM, stepped.GM) {
					t.Errorf("GM:\nskip: %+v\nstep: %+v", skipped.GM, stepped.GM)
				}
				if !reflect.DeepEqual(skipped.TLB, stepped.TLB) {
					t.Errorf("TLB:\nskip: %+v\nstep: %+v", skipped.TLB, stepped.TLB)
				}
			}
		})
	}
}
