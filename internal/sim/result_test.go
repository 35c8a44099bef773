package sim

import (
	"strings"
	"testing"

	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/stats"
	"secpref/internal/tlb"
)

func TestAPKISplitNonSecure(t *testing.T) {
	r := &Result{Instructions: 1000}
	r.L1D.Accesses[mem.KindLoad] = 200
	r.L1D.Accesses[mem.KindRFO] = 50
	r.L1D.Accesses[mem.KindPrefetch] = 100
	ap := r.L1DAPKI()
	if ap.Load != 250 || ap.Prefetch != 100 || ap.Commit != 0 {
		t.Errorf("split %+v", ap)
	}
	if ap.Total() != 350 {
		t.Errorf("total %f", ap.Total())
	}
}

func TestAPKISplitSecure(t *testing.T) {
	r := &Result{Instructions: 1000}
	r.Config.Secure = true
	r.L1D.SpecAccesses = 200
	r.L1D.Accesses[mem.KindRFO] = 50
	r.L1D.Accesses[mem.KindCommitWrite] = 150
	r.L1D.Accesses[mem.KindRefetch] = 30
	ap := r.L1DAPKI()
	if ap.Load != 250 {
		t.Errorf("secure load APKI %f (spec probes + RFOs)", ap.Load)
	}
	if ap.Commit != 180 {
		t.Errorf("commit APKI %f", ap.Commit)
	}
}

func TestLoadMissLatencySelectsLevel(t *testing.T) {
	r := &Result{}
	r.L1D.DemandMissLatSum, r.L1D.DemandMissLatCnt = 500, 5
	r.GM.DemandMissLatSum, r.GM.DemandMissLatCnt = 900, 3
	if r.LoadMissLatency() != 100 {
		t.Errorf("non-secure latency %f", r.LoadMissLatency())
	}
	r.Config.Secure = true
	if r.LoadMissLatency() != 300 {
		t.Errorf("secure latency %f (should read the GM)", r.LoadMissLatency())
	}
}

func TestPrefAccuracyAggregatesDeeperLevels(t *testing.T) {
	r := &Result{}
	r.L1D.PrefFilled, r.L1D.PrefUseful = 10, 9
	r.L2.PrefFilled, r.L2.PrefUseful = 10, 1
	if acc := r.PrefAccuracy(mem.LvlL1D); acc != 0.5 {
		t.Errorf("L1D-home accuracy %f, want 0.5 (aggregated)", acc)
	}
	if acc := r.PrefAccuracy(mem.LvlL2); acc != 0.1 {
		t.Errorf("L2-home accuracy %f", acc)
	}
}

func TestHomeLevelMPKI(t *testing.T) {
	r := &Result{Instructions: 10_000}
	r.L1D.Misses[mem.KindLoad] = 400
	r.L1D.Misses[mem.KindRFO] = 100
	r.GM.Misses[mem.KindLoad] = 900
	r.L2.Misses[mem.KindLoad] = 200
	r.L2.Misses[mem.KindRFO] = 50
	r.L2.Misses[mem.KindRefetch] = 30
	r.L2.SpecMisses = 170

	if got := r.HomeLevelMPKI(mem.LvlL1D); got != 50 {
		t.Errorf("non-secure L1D MPKI %f, want 50 (load+RFO misses)", got)
	}
	if got := r.HomeLevelMPKI(mem.LvlL2); got != 28 {
		t.Errorf("non-secure L2 MPKI %f, want 28 (demand + refetch)", got)
	}
	r.Config.Secure = true
	if got := r.HomeLevelMPKI(mem.LvlL1D); got != 90 {
		t.Errorf("secure L1D MPKI %f, want 90 (the GM observes the loads)", got)
	}
	if got := r.HomeLevelMPKI(mem.LvlL2); got != 17 {
		t.Errorf("secure L2 MPKI %f, want 17 (speculative-probe misses)", got)
	}
}

func TestTrafficAPKI(t *testing.T) {
	r := &Result{Instructions: 2000}
	r.L2.Accesses[mem.KindLoad] = 300
	r.L2.Accesses[mem.KindPrefetch] = 100
	r.L2.SpecAccesses = 200
	if got := r.TrafficAPKI(mem.LvlL2); got != 300 {
		t.Errorf("L2 traffic APKI %f, want 300 (all kinds + spec probes)", got)
	}
	if got := r.TrafficAPKI(mem.LvlLLC); got != 0 {
		t.Errorf("idle LLC traffic APKI %f, want 0", got)
	}
}

func TestPerKIZeroInstructions(t *testing.T) {
	if got := stats.PerKI(500, 0); got != 0 {
		t.Errorf("PerKI(500, 0) = %f, want 0 (no division by zero)", got)
	}
	if got := stats.PerKI(500, 10_000); got != 50 {
		t.Errorf("PerKI(500, 10k) = %f, want 50", got)
	}
}

func TestSpeedupGuards(t *testing.T) {
	r := &Result{IPC: 2}
	if r.Speedup(nil) != 0 || r.Speedup(&Result{}) != 0 {
		t.Error("speedup must guard nil/zero baselines")
	}
	if r.Speedup(&Result{IPC: 1}) != 2 {
		t.Error("speedup wrong")
	}
}

func TestConfigLabels(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Label() != "no-pref/non-secure" {
		t.Errorf("label %q", cfg.Label())
	}
	cfg.Secure, cfg.SUF = true, true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure
	if got := cfg.Label(); !strings.Contains(got, "berti") || !strings.Contains(got, "SUF") {
		t.Errorf("label %q", got)
	}
	for m, want := range map[Mode]string{ModeOnAccess: "on-access", ModeOnCommit: "on-commit", ModeTimelySecure: "timely-secure"} {
		if m.String() != want {
			t.Errorf("Mode(%d) = %q", m, m.String())
		}
	}
}

func TestValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero MaxInstrs should fail validation")
	}
	cfg = DefaultConfig()
	cfg.SUF = true
	if err := cfg.Validate(); err == nil {
		t.Error("SUF without Secure should fail validation")
	}
	for _, c := range invalidConfigs {
		cfg := obsConfig()
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s should fail validation", c.name)
		}
	}
	// These zeros run normally: no L1D prefetch queue drops prefetches
	// at issue, no shared port budget leaves the per-class limits alone,
	// and the GhostMinion and TLB are not built.
	for name, mut := range map[string]func(*Config){
		"no L1D PQ":           func(c *Config) { c.L1D.PQSize = 0 },
		"no L1D port budget":  func(c *Config) { c.L1D.TotalPorts = 0 },
		"non-secure, no GM":   func(c *Config) { c.Secure, c.SUF, c.GM = false, false, ghostminion.Config{} },
		"TLB off, zero-sized": func(c *Config) { c.DisableTLB, c.TLB = true, tlb.HierarchyConfig{} },
	} {
		cfg := obsConfig()
		mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	_ = stats.CacheStats{}
}
