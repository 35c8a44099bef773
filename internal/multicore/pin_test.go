package multicore_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/sim"
)

// pinMulticore is the pinned 4-core output digest: FNV-1a over the JSON
// of {PerCore, Cycles, FinalDigests} from cmd/bench's -multicore
// scenario (4 x 605.mcf-1554B, 2k warmup + 10k measured per core,
// secure GhostMinion + SUF + timely-secure Berti). The Interference
// field is left out: it postdates the pin and serializes as null when
// unarmed, so cmd/bench, which hashes the whole Result, prints a
// different value for the same run. docs/performance.md has the
// details.
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
	for _, ref := range []bool{false, true} {
		res, err := multicore.RunProbed(cfg, mixSources(t, names, 12_000), multicore.Probes{ReferenceEngine: ref})
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
			t.Errorf("reference=%v: 4-core output digest = %s, want %s", ref, got, pinMulticore)
		}
	}
}
