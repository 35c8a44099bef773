package sim

import (
	"math/rand"
	"testing"
)

// TestEngineDifferential draws random inputs for the config decoder
// (decodeConfig, shared with FuzzConfig) and requires every valid draw,
// single-core or SMT, to run bit-identically on the event engine and
// the lockstep reference: the same digest streams, results and final
// state digests. A failure names the first divergent (cycle, component)
// and prints the draw as a FuzzConfig corpus entry. At this seed 219 of
// the 400 draws compare and 2 SMT draws starve their second thread;
// fewer than 2 in 5 compared, or more than 2 unfinished, fails.
func TestEngineDifferential(t *testing.T) {
	draws := 400
	if testing.Short() {
		draws = 40
	}
	rng := rand.New(rand.NewSource(20261017))
	ran, smt, unfinished := 0, 0, 0
	for i := 0; i < draws; i++ {
		data := make([]byte, configBytes)
		rng.Read(data)
		d := decodeConfig(data)
		if d.cfg.Validate() != nil {
			continue
		}
		ok, err := d.compare()
		if err != nil {
			t.Fatalf("draw %d (%v, seeds %v, %s): %v\nreproduce with this file in testdata/fuzz/FuzzConfig/:\n%s",
				i, d.traces, d.seeds, d.cfg.Label(), err, corpusEntry(data))
		}
		switch {
		case !ok:
			unfinished++
		case len(d.traces) > 1:
			smt++
			fallthrough
		default:
			ran++
		}
	}
	t.Logf("%d of %d draws equivalent (%d SMT); %d valid draws cannot finish", ran, draws, smt, unfinished)
	if ran < draws*2/5 || unfinished > 2 {
		t.Fatalf("%d of %d draws compared and %d SMT draws did not finish; want at least %d and at most 2",
			ran, draws, unfinished, draws*2/5)
	}
}
