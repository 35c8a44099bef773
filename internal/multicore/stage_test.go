package multicore

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// newDetEngine builds the determinism suite's run (detConfig and detMix
// in determinism_test.go, which this package-internal test cannot
// reach): the quick-campaign mix, 400 warmup and 2000 measured
// instructions.
func newDetEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Single.WarmupInstrs = 400
	cfg.Single.MaxInstrs = 2000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	cfg.Seed = 7
	var mix []trace.Source
	for _, n := range []string{"605.mcf-1554B", "603.bwa-2931B", "619.lbm-2676B", "602.gcc-1850B"} {
		tr, err := workload.Get(n, workload.Params{Instrs: 3000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, trace.NewSource(tr))
	}
	e, err := NewEngine(cfg, mix, Probes{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStageFold pins the fold by a count: an epoch runs a separate
// catch-up stage only when the phase could end in it. On this run
// that is 93 of 1,375 epochs; without the fold every epoch runs one.
func TestStageFold(t *testing.T) {
	e := newDetEngine(t)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	epochs := e.stages[stageReach] + e.stages[stageReach|stageCatchUp]
	catchUps := e.stages[stageCatchUp]
	t.Logf("%d epochs, %d folded, %d with a catch-up stage", epochs, e.stages[stageReach|stageCatchUp], catchUps)
	if epochs == 0 || catchUps*10 > epochs {
		t.Fatalf("%d of %d epochs ran a catch-up stage, want at most 10%%", catchUps, epochs)
	}
}

// TestMayStop tables the fold condition: an epoch of E cycles keeps
// two stages only when every unfinished core is within RetireWidth*E
// instructions of the target.
func TestMayStop(t *testing.T) {
	const e = sim.DefaultLinkLatency
	for _, tc := range []struct {
		name string
		// short is how far the target lies beyond RetireWidth*E; a
		// fresh engine's cores have retired nothing.
		short      uint64
		unfinished []int
		stages     int
	}{
		{"one unfinished core far from the target", 1, []int{0}, 1},
		{"one unfinished core within reach", 0, []int{0}, 2},
		{"every unfinished core within reach", 0, []int{0, 1, 2, 3}, 2},
		{"every unfinished core far", 1, []int{0, 1, 2, 3}, 1},
		{"two unfinished cores far", 1, []int{1, 3}, 1},
	} {
		eng := newDetEngine(t)
		eng.target = uint64(eng.cfg.Single.Core.RetireWidth)*uint64(e) + tc.short
		for i := range eng.reached {
			eng.reached[i] = 0
		}
		for _, i := range tc.unfinished {
			eng.reached[i] = mem.NoEvent
		}
		stages := 1
		if eng.mayStop(eng.now + e) {
			stages = 2
		}
		if stages != tc.stages {
			t.Errorf("%s: %d stages, want %d", tc.name, stages, tc.stages)
		}
	}
}
