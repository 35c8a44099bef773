package secpref_test

// Deterministic engine budgets: whole-run heap allocations of the
// single-core and 4-core engines, and the flat attribution profile.
// The limits derive from the allocation counts the ev7-flat-profile
// engine recorded on 2026-08-07.

import (
	"math"
	"runtime"
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// benchScenario is the single-core scenario the budgets and
// BenchmarkSimulatorThroughput run: the full secure system
// (GhostMinion + TSB + SUF + Berti) over 50k instructions of
// 602.gcc-1850B.
func benchScenario(tb testing.TB) (sim.Config, *trace.Trace) {
	tb.Helper()
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 0
	cfg.MaxInstrs = 50_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = sim.ModeTimelySecure
	return cfg, tr
}

// allocBudget is the allocation limit over a count recorded on
// 2026-08-07 (ev7-flat-profile): the recorded count plus 50% plus 64
// allocations of slack for background runtime work.
func allocBudget(baseline float64) float64 { return baseline*1.5 + 64 }

// fewestAllocs returns the fewest heap allocations any of three runs
// made, each measured as the recorded counts were: the MemStats delta
// around the run alone, after prepare has built its inputs.
// testing.AllocsPerRun is no substitute: it pins GOMAXPROCS to 1, which
// would run the parallel engine's cores inline.
func fewestAllocs(t *testing.T, prepare func() func() error) float64 {
	t.Helper()
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		run := prepare()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return float64(fewest)
}

func TestSingleCoreAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg, tr := benchScenario(t)
	got := fewestAllocs(t, func() func() error {
		src := trace.NewSource(tr)
		return func() error {
			_, err := sim.RunProbed(cfg, src, sim.Probes{})
			return err
		}
	})
	t.Logf("single-core: %.0f allocations", got)
	if limit := allocBudget(133); got > limit {
		t.Errorf("single-core run made %.0f allocations, budget %.0f (baseline 133)", got, limit)
	}
}

// TestMulticoreAllocationBudget runs the 4-core scenario (four copies
// of 605.mcf-1554B, 2k warmup + 10k instructions per core) on the
// lockstep reference, the barrier-parallel engine, and the parallel
// engine with every campaign observer attached.
func TestMulticoreAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 12_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := multicore.DefaultConfig()
	cfg.Single.WarmupInstrs = 2000
	cfg.Single.MaxInstrs = 10_000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	observed := func() multicore.Probes {
		windows := make([]probe.WindowObserver, cfg.Cores)
		for i := range windows {
			windows[i] = probe.NewIntervalSampler(16)
		}
		return multicore.Probes{
			Interference:   true,
			Windows:        windows,
			WindowInstrs:   1000,
			SharedObserver: probe.NewTracer(32, 1<<13),
		}
	}
	for _, engine := range []struct {
		name     string
		baseline float64
		probes   func() multicore.Probes
	}{
		{"lockstep", 442, func() multicore.Probes { return multicore.Probes{ReferenceEngine: true} }},
		{"parallel", 456, func() multicore.Probes { return multicore.Probes{} }},
		{"observed", 515, observed},
	} {
		got := fewestAllocs(t, func() func() error {
			mix := make([]trace.Source, cfg.Cores)
			for i := range mix {
				mix[i] = trace.NewSource(tr)
			}
			p := engine.probes()
			return func() error {
				_, err := multicore.RunProbed(cfg, mix, p)
				return err
			}
		})
		t.Logf("multicore %s: %.0f allocations", engine.name, got)
		if limit := allocBudget(engine.baseline); got > limit {
			t.Errorf("multicore %s run made %.0f allocations, budget %.0f (baseline %.0f)", engine.name, got, limit, engine.baseline)
		}
	}
}

// TestFlatTickProfile keeps the engine-attribution profile flat: on
// the single-core scenario no rank may take more than 40% of the
// engine's ticks.
func TestFlatTickProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg, tr := benchScenario(t)
	prof := observatory.NewProfile()
	if _, err := sim.RunProbed(cfg, trace.NewSource(tr), sim.Probes{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	for _, row := range prof.Table() {
		if row.TickShare > 0.40 {
			t.Errorf("rank %q holds %.1f%% of engine ticks, more than 40%%", row.Rank, 100*row.TickShare)
		}
	}
}
