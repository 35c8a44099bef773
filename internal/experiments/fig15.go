package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"secpref/internal/export"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
)

// fig15Variants are the six systems of Figure 15, in legend order.
func fig15Variants() []cfgVariant {
	return []cfgVariant{
		baseSecure(),
		onAccessNonSecure("berti"),
		onCommitSecure("berti"),
		onCommitSecureSUF("berti"),
		timelySecure("berti"),    // TSB
		timelySecureSUF("berti"), // TSB+SUF
	}
}

// Fig15 reproduces Figure 15: weighted speedup of random 4-core mixes
// under the six Berti-centric configurations, normalized to the
// non-secure no-prefetch multi-core system, sorted by the TSB+SUF
// column as the paper sorts by speedup.
func (r *Runner) Fig15() (*Table, error) {
	t := &Table{
		ID:    "fig15",
		Title: "4-core mix speedup (weighted, normalized to non-secure no-prefetch)",
		Header: []string{"mix", "no-pref/secure", "berti-acc/non-sec", "berti-com/secure",
			"berti-com/secure+SUF", "TSB", "TSB+SUF"},
	}
	mixes := r.randomMixes()
	variants := fig15Variants()

	type row struct {
		name string
		vals []float64
	}
	rows := make([]row, len(mixes))
	err := parallel(len(mixes), func(i int) error {
		base, err := r.mix(mixes[i], baseNonSecure(), false)
		if err != nil {
			return err
		}
		vals := make([]float64, len(variants))
		for j, v := range variants {
			res, err := r.mix(mixes[i], v, false)
			if err != nil {
				return err
			}
			vals[j] = sumIPCRatio(res, base)
		}
		rows[i] = row{name: fmt.Sprintf("mix%02d", i), vals: vals}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sort by the last (TSB+SUF) column, as the paper sorts mixes by
	// increasing speedup.
	sort.Slice(rows, func(a, b int) bool {
		return rows[a].vals[len(variants)-1] < rows[b].vals[len(variants)-1]
	})
	sums := make([]float64, len(variants))
	for _, rw := range rows {
		cells := []string{rw.name}
		for j, v := range rw.vals {
			cells = append(cells, f3(v))
			sums[j] += v
		}
		t.AddRow(cells...)
	}
	avg := []string{"mean"}
	for _, s := range sums {
		avg = append(avg, f3(s/float64(len(rows))))
	}
	t.AddRow(avg...)
	t.Notes = append(t.Notes,
		"paper: GhostMinion costs 16.8% at 4 cores without prefetching; TSB+SUF beats on-commit Berti by 23% and the non-secure baseline by 16.1%")
	return t, nil
}

// mix runs (or returns the memoized) multicore simulation of variant
// v on the named traces, one per core, at the shared-machine budget.
// Consolidation runs (interfere) attach the interference observatory,
// export its snapshot into Options.TimeseriesDir when set, and shrink
// the shared LLC to a 32 KiB bank per core: campaign budgets are ~1000x
// smaller than the paper's, and a full-size 2 MB bank would never
// evict within them, leaving the attribution matrix vacuously empty.
func (r *Runner) mix(names []string, v cfgVariant, interfere bool) (*multicore.Result, error) {
	cfg := multicore.Config{Single: r.sharedConfig(v), Cores: len(names)}
	kind := "mix"
	if interfere {
		kind = "consolidation"
		cfg.Single.LLC.SizeKiB = 32
	}
	return memo(r, runKey{kind, strings.Join(names, "+"), cfg.Single}, func(prof *observatory.Profile) (*multicore.Result, uint64, uint64, error) {
		srcs, err := r.sources(names...)
		if err != nil {
			return nil, 0, 0, err
		}
		res, err := multicore.RunProbed(cfg, srcs, multicore.Probes{Profile: prof, Interference: interfere})
		if err == nil && interfere && r.opts.TimeseriesDir != "" {
			err = export.WriteFiles(r.opts.TimeseriesDir, res.Interference.Files(fmt.Sprintf("mc%02d__%s", len(names), export.FileName(v.label)))...)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		var instrs uint64
		for _, c := range res.PerCore {
			instrs += c.Instructions
		}
		return res, instrs, res.Cycles, nil
	})
}

// sumIPCRatio computes Σ_i IPC_i(cfg)/IPC_i(base) — with identical
// per-core traces in numerator and denominator this equals the weighted
// speedup normalized to the baseline configuration.
func sumIPCRatio(res, base *multicore.Result) float64 {
	s := 0.0
	n := 0
	for i := range res.PerCore {
		if base.PerCore[i].IPC > 0 {
			s += res.PerCore[i].IPC / base.PerCore[i].IPC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// randomMixes draws the paper-style random heterogeneous 4-trace mixes
// from the runner's trace set.
func (r *Runner) randomMixes() [][]string {
	rng := rand.New(rand.NewSource(r.opts.Seed * 7919))
	mixes := make([][]string, r.opts.Mixes)
	for i := range mixes {
		mix := make([]string, 4)
		for j := range mix {
			mix[j] = r.opts.Traces[rng.Intn(len(r.opts.Traces))]
		}
		mixes[i] = mix
	}
	return mixes
}

// Fig15Variant labels, exported for the CLI legend.
func Fig15Labels() []string {
	vs := fig15Variants()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.label
	}
	return out
}
