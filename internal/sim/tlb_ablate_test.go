package sim

import (
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

// TestDisableTLBSpeedsUp checks the translation model's direction: a
// pointer chase over a huge pool walks the page table constantly, so
// disabling translation must not slow the run down.
func TestDisableTLBSpeedsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 40_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) *Result {
		cfg := DefaultConfig()
		cfg.WarmupInstrs = 5_000
		cfg.MaxInstrs = 30_000
		cfg.DisableTLB = disable
		res, err := Run(cfg, trace.NewSource(tr))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(false)
	without := run(true)
	if without.IPC < with.IPC {
		t.Errorf("free translation slower than modeled translation: %.3f vs %.3f", without.IPC, with.IPC)
	}
	if with.TLB.Accesses == 0 || with.TLB.STLBMisses == 0 {
		t.Errorf("TLB stats empty: %+v", with.TLB)
	}
	if without.TLB.Accesses != 0 {
		t.Error("disabled TLB recorded accesses")
	}
}

// TestLatenessThresholdConfig checks the threshold override reaches
// the lateness monitor: on this run the paper's 0.14 never adapts, so
// only an override that arrives makes the hair-trigger run adapt.
func TestLatenessThresholdConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tr, err := workload.Get("619.lbm-2676B", workload.Params{Instrs: 40_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(thr float64) *Result {
		cfg := DefaultConfig()
		cfg.WarmupInstrs = 5_000
		cfg.MaxInstrs = 30_000
		cfg.Secure = true
		cfg.Prefetcher = "ip-stride"
		cfg.Mode = ModeTimelySecure
		cfg.LatenessThreshold = thr
		cfg.LatenessInterval = 128
		res, err := Run(cfg, trace.NewSource(tr))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	strict := run(0.001) // hair-trigger: adapts on any rising lateness
	lax := run(0.99)     // never adapts
	if lax.DistanceAdaptations != 0 {
		t.Errorf("threshold 0.99 still adapted %d times", lax.DistanceAdaptations)
	}
	if strict.DistanceAdaptations == 0 {
		t.Error("threshold 0.001 never adapted")
	}
}

// TestSecureNeverUsesL1DForSpecFills is the central invisibility
// invariant at system level: run a secure no-prefetch simulation and
// verify L1D never recorded a demand fill that bypassed the commit
// path (all L1D installs are commit writes, refetch fills, or RFOs).
func TestSecureL1DInstallsAreCommitPathOnly(t *testing.T) {
	tr, err := workload.Get("641.leela-1083B", workload.Params{Instrs: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 0
	cfg.MaxInstrs = 18_000
	cfg.Secure = true
	res, err := Run(cfg, trace.NewSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	// In the secure system no plain demand loads enter L1D's RQ — only
	// speculative probes (SpecAccesses), refetches, and RFOs.
	if res.L1D.Accesses[0] != 0 { // mem.KindLoad
		t.Errorf("%d non-speculative demand loads reached the secure L1D", res.L1D.Accesses[0])
	}
	if res.L1D.SpecAccesses == 0 {
		t.Error("no speculative probes recorded")
	}
}
