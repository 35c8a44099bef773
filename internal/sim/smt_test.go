package sim

import (
	"testing"

	"secpref/internal/cache"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

func smtSources(t *testing.T, a, b string, n int) []trace.Source {
	t.Helper()
	out := make([]trace.Source, 2)
	for i, name := range []string{a, b} {
		tr, err := workload.Get(name, workload.Params{Instrs: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = trace.NewSource(tr)
	}
	return out
}

func TestSMTBothThreadsRetire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 1000
	cfg.MaxInstrs = 10_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure
	res, err := RunSMT(cfg, smtSources(t, "605.mcf-1554B", "602.gcc-1850B", 12_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for i, r := range res {
		if r.Instructions < 10_000 {
			t.Errorf("thread %d retired %d", i, r.Instructions)
		}
		if r.Core.SUFDrops == 0 {
			t.Errorf("thread %d: SUF inactive", i)
		}
		t.Logf("thread %d (%s): IPC=%.3f SUF acc=%.1f%%", i, r.TraceName, r.IPC, r.SUFAccuracy()*100)
	}
}

func TestSMTSharingSlowsThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 20_000
	cfg.Secure = true
	// Alone.
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 24_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Run(cfg, trace.NewSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Sharing the L1D/L2 with a second copy of itself.
	pair, err := RunSMT(cfg, smtSources(t, "605.mcf-1554B", "605.mcf-1554B", 24_000))
	if err != nil {
		t.Fatal(err)
	}
	if pair[0].IPC >= alone.IPC*1.02 {
		t.Errorf("SMT thread faster than running alone: %.3f vs %.3f", pair[0].IPC, alone.IPC)
	}
}

func TestSMTRequiresTwoThreads(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := BuildSMT(cfg, nil); err == nil {
		t.Fatal("expected thread-count error")
	}
}

// TestSMTBuildsCachesFromConfig checks that the SMT core builds every
// shared level from the configuration Validate checked, the LLC
// included.
func TestSMTBuildsCachesFromConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLC.SizeKiB /= 4
	cfg.LLC.MSHRs = 8
	ms, err := BuildSMT(cfg, smtSources(t, "605.mcf-1554B", "602.gcc-1850B", 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want cache.Config
	}{{"L1D", ms[0].l1d.Config(), cfg.L1D}, {"L2", ms[0].l2.Config(), cfg.L2}, {"LLC", ms[0].llc.Config(), cfg.LLC}} {
		if c.got != c.want {
			t.Errorf("SMT %s built as %+v, configured %+v", c.name, c.got, c.want)
		}
	}
}
