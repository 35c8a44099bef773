package secpref_test

import (
	"testing"

	"secpref"
)

func TestWorkloadCatalog(t *testing.T) {
	all := secpref.Workloads()
	if len(all) != 65 {
		t.Errorf("%d workloads, want 65", len(all))
	}
	if len(secpref.WorkloadSuite("spec")) != 45 {
		t.Error("spec suite size wrong")
	}
	if len(secpref.WorkloadSuite("gap")) != 20 {
		t.Error("gap suite size wrong")
	}
	if len(secpref.Prefetchers()) != 5 {
		t.Errorf("prefetchers: %v", secpref.Prefetchers())
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := secpref.DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 15_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = secpref.ModeTimelySecure
	res, err := secpref.Run(cfg, "602.gcc-1850B", secpref.WorkloadParams{Instrs: 17_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 15_000 || res.IPC <= 0 {
		t.Fatalf("bad result: instrs=%d ipc=%f", res.Instructions, res.IPC)
	}
}

func TestRunUnknownTrace(t *testing.T) {
	cfg := secpref.DefaultConfig()
	if _, err := secpref.Run(cfg, "not-a-trace", secpref.DefaultWorkloadParams()); err == nil {
		t.Fatal("expected unknown-trace error")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := secpref.DefaultConfig()
	cfg.SUF = true // without Secure: contradiction
	if _, err := secpref.Run(cfg, "602.gcc-1850B", secpref.DefaultWorkloadParams()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := secpref.DefaultConfig()
	cfg.WarmupInstrs = 1000
	cfg.MaxInstrs = 8000
	p := secpref.WorkloadParams{Instrs: 9000, Seed: 5}
	a, err := secpref.Run(cfg, "641.leela-1083B", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := secpref.Run(cfg, "641.leela-1083B", p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Errorf("simulation not deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestGenerateTraceAndRunTrace(t *testing.T) {
	tr, err := secpref.GenerateTrace("657.xz-2302B", secpref.WorkloadParams{Instrs: 9000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := secpref.DefaultConfig()
	cfg.WarmupInstrs = 1000
	cfg.MaxInstrs = 8000
	res, err := secpref.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceName != "657.xz-2302B" {
		t.Errorf("trace name %q", res.TraceName)
	}
}

// TestBuildAndRunTrace builds a trace the way the Trace doc shows: a
// strided load loop appended instruction by instruction.
func TestBuildAndRunTrace(t *testing.T) {
	tr := &secpref.Trace{Name: "strided-loop"}
	for i := 0; i < 3000; i++ {
		tr.Append(secpref.Instr{IP: 0x400000, Load: 0x1000_0000 + secpref.Addr(i)*64})
		tr.Append(secpref.Instr{IP: 0x400004, Branch: true, Taken: i%100 != 99})
	}
	if tr.Len() != 6000 {
		t.Fatalf("Len() = %d, want 6000", tr.Len())
	}
	cfg := secpref.DefaultConfig()
	cfg.WarmupInstrs = 500
	cfg.MaxInstrs = 5000
	res, err := secpref.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceName != "strided-loop" || res.Instructions < 5000 {
		t.Errorf("ran %d instructions of %q", res.Instructions, res.TraceName)
	}
}

func TestRunMix(t *testing.T) {
	cfg := secpref.DefaultConfig()
	cfg.WarmupInstrs = 500
	cfg.MaxInstrs = 5000
	res, err := secpref.RunMix(cfg, []string{"641.leela-1083B", "657.xz-2302B"}, secpref.WorkloadParams{Instrs: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("%d cores", len(res.PerCore))
	}
	if _, err := secpref.RunMix(cfg, nil, secpref.DefaultWorkloadParams()); err == nil {
		t.Fatal("expected empty-mix error")
	}
}

func TestAttackAPI(t *testing.T) {
	o, err := secpref.SpectreCacheLeak(secpref.AttackConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Leaked {
		t.Error("non-secure system should leak")
	}
	o, err = secpref.SpectrePrefetchLeak(secpref.AttackConfig{Secure: true, Prefetcher: "ip-stride", OnCommitPrefetch: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Leaked {
		t.Error("on-commit prefetching should not leak")
	}
}

func TestPrefetcherAccuracyHelper(t *testing.T) {
	cfg := secpref.DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 20_000
	cfg.Prefetcher = "ip-stride"
	res, err := secpref.Run(cfg, "619.lbm-2676B", secpref.WorkloadParams{Instrs: 22_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := secpref.PrefetcherAccuracy(res, "ip-stride")
	if acc < 0 || acc > 1.5 {
		t.Errorf("implausible accuracy %f", acc)
	}
}
