package sim

import (
	"encoding/json"
	"fmt"
	"testing"

	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// Pinned output digests: FNV-1a (observatory.HashBytes) over the JSON
// of a run's results. Any change that moves a simulated number moves
// them; an engine refactor must leave them alone. docs/performance.md
// records how each one is computed.
const (
	// pinSingleCore is the Result of 602.gcc-1850B, 50k instructions,
	// secure GhostMinion + SUF + timely-secure Berti, run plain and with
	// a campaign's probes attached: probes must not move a counter.
	pinSingleCore = "f46ca1ea9359064b"
	// pinSMT is RunSMT's two results in TestSMTBothThreadsRetire's
	// configuration.
	pinSMT = "1569ea522b64e52d"
	// pinTS is the Results of TestPinnedDigestTS's timely-secure runs:
	// each distance-tunable prefetcher adapting, Bingo on its own
	// lateness threshold, a run ending at its maximum distance, and SMT
	// pairs with an L2 prefetcher.
	pinTS = "a6db4000540132ab"
)

func hashJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", observatory.HashBytes(raw))
}

func TestPinnedDigestSingleCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 0
	cfg.MaxInstrs = 50_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name   string
		probes Probes
	}{
		{"plain", Probes{}},
		// A campaign's attachments: every 32nd load traced into an 8Ki
		// ring, one window sample per 1k instructions.
		{"probed", Probes{Observer: probe.NewTracer(32, 1<<13), Window: probe.NewIntervalSampler(52)}},
	} {
		res, err := RunProbed(cfg, trace.NewSource(tr), run.probes)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashJSON(t, res); got != pinSingleCore {
			t.Errorf("%s: single-core output digest = %s, want %s", run.name, got, pinSingleCore)
		}
	}
}

func TestPinnedDigestSMT(t *testing.T) {
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
	if got := hashJSON(t, res); got != pinSMT {
		t.Errorf("SMT output digest = %s, want %s", got, pinSMT)
	}
}

// TestPinnedDigestTS pins the timely-secure distance adaptation (§V-D)
// on secure systems without SUF, seed 1. Each single-core row adapts at
// least once; a row that stops adapting no longer covers its path.
func TestPinnedDigestTS(t *testing.T) {
	var results []*Result
	for _, row := range []struct {
		prefetcher, trace string
		interval          uint64
		warmup, instrs    int
		finalDistance     int // checked when non-zero
	}{
		{"ip-stride", "pr-3B", 512, 5_000, 50_000, 0},
		{"spp-ppf", "pr-3B", 512, 5_000, 50_000, 0},
		// Adapts once on Bingo's 0.05 threshold, never at 0.14.
		{"bingo", "623.xalan-202B", 512, 5_000, 50_000, 0},
		{"ipcp", "654.roms-1007B", 128, 5_000, 50_000, 0},
		// Adapts until the distance is clamped at Bingo's maximum.
		{"bingo", "603.bwa-2931B", 128, 10_000, 100_000, 8},
	} {
		cfg := DefaultConfig()
		cfg.WarmupInstrs = row.warmup
		cfg.MaxInstrs = row.instrs
		cfg.Secure = true
		cfg.Prefetcher = row.prefetcher
		cfg.Mode = ModeTimelySecure
		cfg.LatenessInterval = row.interval
		tr, err := workload.Get(row.trace, workload.Params{Instrs: row.warmup + row.instrs, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, trace.NewSource(tr))
		if err != nil {
			t.Fatal(err)
		}
		if res.DistanceAdaptations == 0 {
			t.Errorf("%s on %s no longer adapts its distance", row.prefetcher, row.trace)
		}
		if row.finalDistance != 0 && res.FinalDistance != row.finalDistance {
			t.Errorf("%s on %s ends at distance %d, want %d", row.prefetcher, row.trace, res.FinalDistance, row.finalDistance)
		}
		results = append(results, res)
	}
	// Thread 1 shares thread 0's L2 prefetcher, so it trains it from
	// the post-L1D stream too.
	for _, pf := range []string{"bingo", "spp-ppf"} {
		cfg := DefaultConfig()
		cfg.WarmupInstrs = 1000
		cfg.MaxInstrs = 10_000
		cfg.Secure = true
		cfg.Prefetcher = pf
		cfg.Mode = ModeTimelySecure
		res, err := RunSMT(cfg, smtSources(t, "605.mcf-1554B", "603.bwa-2931B", 12_000))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res...)
	}
	if got := hashJSON(t, results); got != pinTS {
		t.Errorf("timely-secure output digest = %s, want %s", got, pinTS)
	}
}
