package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"secpref/internal/cache"
	"secpref/internal/observatory"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// drawConfig draws one single-core configuration for the engine
// differential test: prefetcher, mode, security, SUF, classifier, TLB,
// L1D size, L2 MSHRs, replacement policy, trace class and workload
// seed. It returns the configuration and the trace to run.
func drawConfig(rng *rand.Rand) (Config, string, int64) {
	prefetchers := []string{"none", "berti", "bingo", "ip-stride", "ipcp", "spp-ppf"}
	cfg := DefaultConfig()
	cfg.Prefetcher = prefetchers[rng.Intn(len(prefetchers))]
	cfg.Mode = Mode(rng.Intn(3))
	cfg.Secure = rng.Intn(2) == 0
	cfg.SUF = rng.Intn(2) == 0
	cfg.Classify = rng.Intn(4) == 0
	cfg.DisableTLB = rng.Intn(4) == 0
	cfg.L1D.SizeKiB = []int{12, 24, 48, 96}[rng.Intn(4)]
	cfg.L2.MSHRs = []int{2, 8, 32, 64}[rng.Intn(4)]
	policy := cache.Policy(rng.Intn(2))
	cfg.L1D.Policy, cfg.L2.Policy, cfg.LLC.Policy = policy, policy, policy
	cfg.WarmupInstrs = rng.Intn(1500)
	cfg.MaxInstrs = 3000 + rng.Intn(3000)
	return cfg, shapeTraces[rng.Intn(len(shapeTraces))], 1 + rng.Int63n(1000)
}

// TestEngineDifferential runs randomly drawn configurations under the
// event engine and the lockstep reference and requires bit-identical
// results and digest streams. A divergence names the first (cycle,
// component) at which the engines disagree.
func TestEngineDifferential(t *testing.T) {
	draws := 400
	if testing.Short() {
		draws = 40
	}
	rng := rand.New(rand.NewSource(20261017))
	ran := 0
	for i := 0; i < draws; i++ {
		cfg, name, seed := drawConfig(rng)
		if cfg.Validate() != nil {
			continue
		}
		ran++
		label := fmt.Sprintf("draw %d (%s, seed %d, %s, L1D %dKiB, L2 %d MSHRs, %s, classify=%v, tlb=%v)",
			i, name, seed, cfg.Label(), cfg.L1D.SizeKiB, cfg.L2.MSHRs, cfg.L1D.Policy, cfg.Classify, !cfg.DisableTLB)
		tr, err := workload.Get(name, workload.Params{Instrs: cfg.WarmupInstrs + cfg.MaxInstrs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		run := func(ref bool) (*Result, *observatory.Recorder) {
			rec := observatory.NewRecorder()
			res, err := RunProbed(cfg, trace.NewSource(tr), Probes{Digest: rec, DigestEvery: 512, ReferenceEngine: ref})
			if err != nil {
				t.Fatalf("%s, reference=%v: %v", label, ref, err)
			}
			return res, rec
		}
		event, evRec := run(false)
		ref, refRec := run(true)
		if div, ok := observatory.FirstDivergence(evRec, refRec); ok {
			name := "?"
			if div.Component >= 0 && div.Component < NumComponents {
				name = ComponentNames[div.Component]
			}
			t.Fatalf("%s: engines diverge at %s: %v", label, name, div)
		}
		if !reflect.DeepEqual(event, ref) {
			t.Fatalf("%s: results differ\nevent: %+v\nref:   %+v", label, event.Core, ref.Core)
		}
	}
	t.Logf("%d of %d draws valid and equivalent", ran, draws)
}
