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
