package sim

import (
	"reflect"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/probe"
)

// probedConfig exercises every emission site: secure (GM + SUF + commit
// path), TSB prefetching (prefetch drops/merges/installs), and enough
// instructions to reach DRAM.
func probedConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 15_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure
	return cfg
}

// TestRunProbedEquivalence pins the observability layer's core
// guarantee: attaching observers never changes the simulated outcome.
// The full Result — every architectural counter and derived statistic —
// must be bit-identical with and without probes.
func TestRunProbedEquivalence(t *testing.T) {
	cfg := probedConfig()

	plain, err := Run(cfg, smokeTrace(t, "605.mcf-1554B", 17_000))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	probed, err := RunProbed(cfg, smokeTrace(t, "605.mcf-1554B", 17_000), Probes{
		Observer:     probe.Fanout(probe.NewTracer(4, 4096)),
		Window:       probe.NewIntervalSampler(32),
		WindowInstrs: 1000,
	})
	if err != nil {
		t.Fatalf("RunProbed: %v", err)
	}
	if !reflect.DeepEqual(plain, probed) {
		t.Errorf("observers perturbed the simulation:\nplain:  %+v\nprobed: %+v", plain, probed)
	}
}

// TestRunProbedWindows checks the interval sampler's contract: windows
// land at the configured boundaries, cumulative counters are monotone,
// and the final (flushed) sample covers the whole measured phase.
func TestRunProbedWindows(t *testing.T) {
	cfg := probedConfig()
	s := probe.NewIntervalSampler(32)
	res, err := RunProbed(cfg, smokeTrace(t, "605.mcf-1554B", 17_000), Probes{
		Window:       s,
		WindowInstrs: 1000,
	})
	if err != nil {
		t.Fatalf("RunProbed: %v", err)
	}
	samples := s.Samples()
	if len(samples) < 10 {
		t.Fatalf("%d windows for 15k instrs at 1k interval, want >= 10", len(samples))
	}
	var prev probe.Sample
	for i, sm := range samples {
		if sm.Instructions < prev.Instructions || sm.Cycle < prev.Cycle {
			t.Errorf("window %d not monotone: %+v after %+v", i, sm, prev)
		}
		prev = sm
	}
	last := samples[len(samples)-1]
	if last.Instructions != res.Instructions {
		t.Errorf("final sample at %d instructions, result has %d", last.Instructions, res.Instructions)
	}
	if last.Cycle != res.Cycles {
		t.Errorf("final sample at cycle %d, result has %d", last.Cycle, res.Cycles)
	}
	if last.DemandMisses == 0 || last.DRAMReads == 0 {
		t.Errorf("mcf run recorded no misses/DRAM reads: %+v", last)
	}
	// The derived time series must be valid for every window.
	for i, row := range s.Rows() {
		if row.IPC <= 0 || row.IPC > 8 {
			t.Errorf("row %d has implausible IPC %v", i, row.IPC)
		}
	}
}

// TestRunProbedTracerChains checks that a traced load's lifecycle chain
// actually spans sites: the ring must contain core issues, GM lookups,
// and commit outcomes for the same sampled sequence numbers.
func TestRunProbedTracerChains(t *testing.T) {
	cfg := probedConfig()
	tr := probe.NewTracer(8, 1<<14)
	if _, err := RunProbed(cfg, smokeTrace(t, "605.mcf-1554B", 17_000), Probes{Observer: tr}); err != nil {
		t.Fatalf("RunProbed: %v", err)
	}
	var issues, gmEvents, commits int
	for _, ev := range tr.Events() {
		if ev.Seq%8 != 0 {
			t.Fatalf("unsampled seq %d in ring", ev.Seq)
		}
		switch {
		case ev.Kind == probe.EvIssue && ev.Site == probe.SiteCore:
			issues++
		case ev.Site == probe.SiteGM:
			gmEvents++
		case ev.Kind == probe.EvCommit && ev.Site == probe.SiteCore:
			commits++
		}
	}
	if issues == 0 || gmEvents == 0 || commits == 0 {
		t.Errorf("lifecycle chain incomplete: %d issues, %d GM events, %d commits", issues, gmEvents, commits)
	}
}

// TestSampleWindowZeroAlloc bounds the interval sampler's per-boundary
// overhead: assembling and recording a Sample into a preallocated
// sampler must not allocate.
func TestSampleWindowZeroAlloc(t *testing.T) {
	cfg := probedConfig()
	m, err := NewMachine(cfg, smokeTrace(t, "605.mcf-1554B", 17_000))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.run(m.Instructions()+5000, 1<<40, mem.NoEvent); err != nil {
		t.Fatalf("run: %v", err)
	}
	m.armWindows(probe.NewIntervalSampler(512), 1000)
	if avg := testing.AllocsPerRun(200, m.sampleWindow); avg != 0 {
		t.Errorf("sampleWindow allocates %.1f objects/op, want 0", avg)
	}
}
