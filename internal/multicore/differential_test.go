package multicore_test

import (
	"math/rand"
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

// sources returns a factory of fresh sources, one per core, of the
// named traces with the given workload seeds and instruction count.
func sources(names []string, seeds []int64, instrs int) func() ([]trace.Source, error) {
	return func() ([]trace.Source, error) {
		out := make([]trace.Source, len(names))
		for c, n := range names {
			tr, err := workload.Get(n, workload.Params{Instrs: instrs, Seed: seeds[c]})
			if err != nil {
				return nil, err
			}
			out[c] = trace.NewSource(tr)
		}
		return out, nil
	}
}

// TestEngineDifferential draws random inputs for the mix decoder
// (decodeMix, shared with FuzzMulticoreConfig): mostly 2- and 4-core
// mixes with random barrier intervals up to the safety bound, drain
// seeds, worker counts and systems. It requires every valid draw to run
// on the barrier-parallel engine as on the lockstep reference
// (multicore.CompareEngines): the same digest stream, final digests and
// per-core results. A failure names the first divergent (cycle,
// component) and prints the draw as a FuzzMulticoreConfig corpus entry.
// At this seed 29 of the 30 draws compare; fewer than 3 in 4 fails.
func TestEngineDifferential(t *testing.T) {
	draws := 30
	if testing.Short() {
		draws = 4
	}
	rng := rand.New(rand.NewSource(20261017))
	ran := 0
	for i := 0; i < draws; i++ {
		data := make([]byte, mixBytes)
		rng.Read(data)
		d := decodeMix(data)
		ok, err := d.compare()
		if err != nil {
			t.Fatalf("draw %d (%s): %v\nreproduce with this file in testdata/fuzz/FuzzMulticoreConfig/:\n%s",
				i, d, err, corpusEntry(data))
		}
		if ok {
			ran++
		}
	}
	t.Logf("%d of %d draws equivalent", ran, draws)
	if ran < draws*3/4 {
		t.Fatalf("%d of %d draws compared; want at least %d", ran, draws, draws*3/4)
	}
}
