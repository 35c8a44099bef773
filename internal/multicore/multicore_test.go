package multicore_test

import (
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

func mixSources(t *testing.T, names []string, n int) []trace.Source {
	t.Helper()
	out := make([]trace.Source, len(names))
	for i, name := range names {
		tr, err := workload.Get(name, workload.Params{Instrs: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = trace.NewSource(tr)
	}
	return out
}

func TestFourCoreMixRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := multicore.DefaultConfig()
	cfg.Single.WarmupInstrs = 1000
	cfg.Single.MaxInstrs = 10_000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	names := []string{"605.mcf-1554B", "603.bwa-2931B", "619.lbm-2676B", "602.gcc-1850B"}
	res, err := multicore.Run(cfg, mixSources(t, names, 12_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("got %d per-core results", len(res.PerCore))
	}
	for i, rc := range res.PerCore {
		if rc.Instructions < 10_000 {
			t.Errorf("core %d retired only %d instructions", i, rc.Instructions)
		}
		if rc.IPC <= 0 {
			t.Errorf("core %d IPC %f", i, rc.IPC)
		}
		t.Logf("core %d (%s): IPC=%.3f", i, names[i], rc.IPC)
	}
}

// TestCoreCountsRejected: a core count whose shared LLC cannot be built
// (no cores, or a bank count that leaves a set count that is not a power
// of two) returns an error instead of panicking.
func TestCoreCountsRejected(t *testing.T) {
	for _, cores := range []int{0, 3, 5, 6} {
		cfg := multicore.DefaultConfig()
		cfg.Cores = cores
		names := make([]string, cores)
		for i := range names {
			names[i] = "605.mcf-1554B"
		}
		if _, err := multicore.Run(cfg, mixSources(t, names, 1000)); err == nil {
			t.Errorf("%d cores: built a shared LLC the engine cannot run", cores)
		}
	}
}

func TestMixSizeMismatch(t *testing.T) {
	cfg := multicore.DefaultConfig()
	_, err := multicore.Run(cfg, nil)
	if err == nil {
		t.Fatal("expected mix-size error")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	r := &multicore.Result{PerCore: []*sim.Result{{IPC: 1}, {IPC: 2}}}
	ws, err := r.WeightedSpeedup([]float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1.5 {
		t.Errorf("weighted speedup = %v, want 1.5", ws)
	}
	if _, err := r.WeightedSpeedup([]float64{1}); err == nil {
		t.Error("expected size-mismatch error")
	}
	if _, err := r.WeightedSpeedup([]float64{0, 1}); err == nil {
		t.Error("expected non-positive baseline error")
	}
}
