package multicore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// TestEngineDifferential draws 2- and 4-core mixes with random barrier
// intervals (up to the safety bound), drain seeds and worker counts, and
// requires the barrier-parallel engine to reproduce the lockstep
// reference: the same digest stream, final digests and per-core results.
func TestEngineDifferential(t *testing.T) {
	draws := 30
	if testing.Short() {
		draws = 4
	}
	classes := []string{"605.mcf-1554B", "603.bwa-2931B", "654.roms-1007B", "bfs-3B"}
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < draws; i++ {
		cfg := multicore.DefaultConfig()
		cfg.Cores = 2 + 2*(i%2)
		cfg.Seed = rng.Uint64()
		cfg.Single.WarmupInstrs = rng.Intn(800)
		cfg.Single.MaxInstrs = 1000 + rng.Intn(1500)
		if rng.Intn(2) == 0 {
			cfg.Single.Secure, cfg.Single.SUF = true, rng.Intn(2) == 0
			cfg.Single.Prefetcher, cfg.Single.Mode = "berti", sim.ModeTimelySecure
		}
		interval := mem.Cycle(1 + rng.Intn(int(sim.DefaultLinkLatency)))
		workers := 1 + rng.Intn(cfg.Cores)
		names := make([]string, cfg.Cores)
		seeds := make([]int64, cfg.Cores)
		for c := range names {
			names[c] = classes[rng.Intn(len(classes))]
			seeds[c] = 1 + rng.Int63n(1000)
		}
		label := fmt.Sprintf("draw %d (%v, seeds %v, %s, interval %d, workers %d, drain seed %d)",
			i, names, seeds, cfg.Single.Label(), interval, workers, cfg.Seed)
		mix := func() []trace.Source {
			out := make([]trace.Source, len(names))
			for c, n := range names {
				tr, err := workload.Get(n, workload.Params{Instrs: cfg.Single.WarmupInstrs + cfg.Single.MaxInstrs, Seed: seeds[c]})
				if err != nil {
					t.Fatal(err)
				}
				out[c] = trace.NewSource(tr)
			}
			return out
		}
		refRec, parRec := observatory.NewRecorder(), observatory.NewRecorder()
		ref, err := multicore.RunProbed(cfg, mix(), multicore.Probes{ReferenceEngine: true, Digest: refRec, DigestEvery: 512})
		if err != nil {
			t.Fatalf("%s, reference: %v", label, err)
		}
		par, err := multicore.RunProbed(cfg, mix(), multicore.Probes{
			Interval: interval, Workers: workers, Digest: parRec, DigestEvery: 512,
		})
		if err != nil {
			t.Fatalf("%s, parallel: %v", label, err)
		}
		if div, bad := observatory.FirstDivergence(refRec, parRec); bad {
			comp := "?"
			if names := sim.MulticoreComponentNames(cfg.Cores); div.Component >= 0 && div.Component < len(names) {
				comp = names[div.Component]
			}
			t.Fatalf("%s: engines diverge at %s: %v", label, comp, div)
		}
		if !reflect.DeepEqual(ref, par) {
			t.Fatalf("%s: results differ\nref %+v\npar %+v", label, fp(ref), fp(par))
		}
	}
}
