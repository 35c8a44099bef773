package experiments

import (
	"testing"
)

// TestRunnerParallelismInvariant regenerates experiments of every run
// kind serially and with the default worker count: the rendered tables
// must match exactly.
// Each simulation owns its machine (and its request pool), so scheduling
// order must be invisible in the output — this is the contract that lets
// the campaign fan out across cores without sacrificing reproducibility.
func TestRunnerParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	gen := func(parallelism int) string {
		opts := QuickOptions()
		opts.Instrs = 6000
		opts.Warmup = 1000
		opts.Mixes = 2
		opts.Traces = []string{"605.mcf-1554B", "bfs-3B", "619.lbm-2676B"}
		opts.Parallelism = parallelism
		r := NewRunner(opts)
		out := ""
		for _, id := range []string{"fig4", "fig6", "fig15", "smt-suf", "ablate-gm", "leakage-audit"} {
			tab, err := r.Run(id)
			if err != nil {
				t.Fatalf("%s (p=%d): %v", id, parallelism, err)
			}
			out += tab.String()
		}
		return out
	}
	serial := gen(1)
	parallel := gen(0) // 0 → GOMAXPROCS default
	if serial != parallel {
		t.Errorf("parallel campaign diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
