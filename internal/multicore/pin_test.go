package multicore_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
)

// pinMulticore is the pinned 4-core output digest: FNV-1a over the JSON
// of {PerCore, Cycles, FinalDigests} of 4 x 605.mcf-1554B, 2k warmup +
// 10k measured per core, secure GhostMinion + SUF + timely-secure
// Berti, on the parallel engine, the lockstep reference and the
// parallel engine with a campaign's observers attached. The
// Interference field is left out: it postdates the pin, serializes as
// null when unarmed, and carries the observed run's snapshot.
// docs/performance.md has the details.
const pinMulticore = "8ba482e5c11eef6e"

func TestPinnedDigestMulticore(t *testing.T) {
	cfg := multicore.DefaultConfig()
	cfg.Single.WarmupInstrs = 2000
	cfg.Single.MaxInstrs = 10_000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	names := []string{"605.mcf-1554B", "605.mcf-1554B", "605.mcf-1554B", "605.mcf-1554B"}
	windows := make([]probe.WindowObserver, len(names))
	for i := range windows {
		windows[i] = probe.NewIntervalSampler(16)
	}
	for _, run := range []struct {
		name   string
		probes multicore.Probes
	}{
		{"parallel", multicore.Probes{}},
		{"lockstep", multicore.Probes{ReferenceEngine: true}},
		{"observed", multicore.Probes{
			Interference:   true,
			Windows:        windows,
			WindowInstrs:   1000,
			SharedObserver: probe.NewTracer(32, 1<<13),
		}},
	} {
		res, err := multicore.RunProbed(cfg, mixSources(t, names, 12_000), run.probes)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(struct {
			PerCore      []*sim.Result
			Cycles       uint64
			FinalDigests []uint64
		}{res.PerCore, res.Cycles, res.FinalDigests})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", observatory.HashBytes(raw)); got != pinMulticore {
			t.Errorf("%s: 4-core output digest = %s, want %s", run.name, got, pinMulticore)
		}
	}
}
