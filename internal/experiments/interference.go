package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"secpref/internal/export"
	"secpref/internal/interference"
	"secpref/internal/multicore"
)

// interferenceCoreCounts are the consolidation points of the study:
// the paper's 4-core system plus 8- and 16-core tenant packings.
var interferenceCoreCounts = []int{4, 8, 16}

// interferenceVariants compares the full secure stack against the
// conventional non-secure prefetching system — the question the table
// answers is whether the secure design changes who hurts whom.
func interferenceVariants() []cfgVariant {
	return []cfgVariant{
		timelySecureSUF("berti"),
		onAccessNonSecure("berti"),
	}
}

// tenantMix draws an n-core heterogeneous tenant mix from the runner's
// trace set, seeded per core count so every campaign sees the same
// packing.
func (r *Runner) tenantMix(n int) []string {
	rng := rand.New(rand.NewSource(r.opts.Seed*6271 + int64(n)))
	mix := make([]string, n)
	for i := range mix {
		mix[i] = r.opts.Traces[rng.Intn(len(r.opts.Traces))]
	}
	return mix
}

// runConsolidation simulates one tenant mix with the interference
// observatory attached. The shared LLC is shrunk to a 32 KiB bank per
// core: campaign instruction budgets are ~1000x smaller than the
// paper's, and a full-size 2 MB bank would never evict within them,
// leaving the attribution matrix vacuously empty.
func (r *Runner) runConsolidation(v cfgVariant, names []string) (*multicore.Result, error) {
	cfg := multicore.Config{Single: v.config(r.opts), Cores: len(names)}
	cfg.Single.MaxInstrs = r.opts.Instrs / 2
	cfg.Single.WarmupInstrs = r.opts.Warmup / 2
	cfg.Single.LLC.SizeKiB = 32
	mix, err := r.mixSources(names)
	if err != nil {
		return nil, err
	}
	return multicore.RunProbed(cfg, mix, multicore.Probes{Interference: true})
}

// ConsolidationInterference runs the cross-core interference study:
// who hurt whom through the shared cache, at 4/8/16-core consolidation
// levels, secure vs non-secure. Each run contributes its top
// aggressor→victim cells (by total evictions) and a whole-matrix total
// row; occ_share is the aggressor's share of occupied LLC lines at run
// end. With -timeseries set, every run's full snapshot is exported as
// JSON, CSV, Prometheus text, and a Perfetto counter trace.
func (r *Runner) ConsolidationInterference() (*Table, error) {
	t := &Table{
		ID:    "consolidation-interference",
		Title: "cross-core interference attribution (top aggressor→victim cells per run)",
		Header: []string{"config", "cell", "demand", "prefetch", "suf", "maint",
			"inflicted", "pollution", "occ_share"},
	}
	const topCells = 5
	for _, cores := range interferenceCoreCounts {
		names := r.tenantMix(cores)
		for _, v := range interferenceVariants() {
			res, err := r.runConsolidation(v, names)
			if err != nil {
				return nil, fmt.Errorf("consolidation-interference %d-core %s: %w", cores, v.label, err)
			}
			if r.opts.Campaign != nil {
				r.opts.Campaign.RunStarted()
				r.opts.Campaign.RunDone(res.PerCore[0].Instructions*uint64(cores), res.Cycles)
			}
			s := res.Interference
			label := fmt.Sprintf("mc%02d/%s", cores, v.label)

			share := make(map[int]float64, cores)
			for _, c := range s.PerCore {
				share[c.Core] = c.OccShare
			}
			cells := append([]interference.CellRow(nil), s.Cells...)
			sort.Slice(cells, func(a, b int) bool {
				ta, tb := cells[a].Total(), cells[b].Total()
				if ta != tb {
					return ta > tb
				}
				if cells[a].Aggressor != cells[b].Aggressor {
					return cells[a].Aggressor < cells[b].Aggressor
				}
				return cells[a].Victim < cells[b].Victim
			})
			var total interference.CellRow
			for _, c := range cells {
				for cl := range c.Evictions {
					total.Evictions[cl] += c.Evictions[cl]
				}
				total.Inflicted += c.Inflicted
				total.Pollution += c.Pollution
			}
			for i, c := range cells {
				if i >= topCells || c.Total() == 0 {
					break
				}
				t.AddRow(label, fmt.Sprintf("c%d→c%d", c.Aggressor, c.Victim),
					u(c.Evictions[interference.ClassDemand]), u(c.Evictions[interference.ClassPrefetch]),
					u(c.Evictions[interference.ClassSUF]), u(c.Evictions[interference.ClassMaintenance]),
					u(c.Inflicted), u(c.Pollution), f3(share[c.Aggressor]))
			}
			t.AddRow(label, "total",
				u(total.Evictions[interference.ClassDemand]), u(total.Evictions[interference.ClassPrefetch]),
				u(total.Evictions[interference.ClassSUF]), u(total.Evictions[interference.ClassMaintenance]),
				u(total.Inflicted), u(total.Pollution), "-")

			if r.opts.TimeseriesDir != "" {
				if err := export.WriteFiles(r.opts.TimeseriesDir, s.Files(fmt.Sprintf("mc%02d__%s", cores, export.FileName(v.label)))...); err != nil {
					return nil, err
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		"inflicted = victim demand misses on lines this aggressor evicted; pollution = the prefetch-caused subset",
		"LLC shrunk to 32 KiB/core bank so laptop-scale budgets exercise capacity contention (paper scale: 2 MB/core)")
	return t, nil
}

func u(v uint64) string { return fmt.Sprintf("%d", v) }
