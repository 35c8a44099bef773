package experiments

import (
	"fmt"

	"secpref/internal/sim"
)

// Fig1 reproduces Figure 1: speedup of each prefetcher — on-access on
// the non-secure system, on-access on the secure system, on-commit on
// the secure system — normalized to the non-secure system without
// prefetching, plus the secure no-prefetch reference (the red line).
func (r *Runner) Fig1() (*Table, error) {
	t := &Table{
		ID:     "fig1",
		Title:  "Speedup of state-of-the-art prefetchers (normalized to non-secure, no prefetching)",
		Header: []string{"prefetcher", "on-access/non-secure", "on-access/secure", "on-commit/secure"},
	}
	secBase, err := r.speedups(baseSecure())
	if err != nil {
		return nil, err
	}
	for _, pf := range Prefetchers {
		var cells []string
		for _, v := range []cfgVariant{onAccessNonSecure(pf), onAccessSecure(pf), onCommitSecure(pf)} {
			sp, err := r.speedups(v)
			if err != nil {
				return nil, err
			}
			cells = append(cells, f3(geomean(sp)))
		}
		t.AddRow(append([]string{pf}, cells...)...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("no-pref secure reference line: %s", f3(geomean(secBase))),
		"paper shape: on-access/non-secure > on-access/secure > on-commit/secure, all above the reference line")
	return t, nil
}

// Fig3 reproduces Figure 3: average L1D accesses per kilo instruction,
// split into load / prefetch / commit requests, for the non-secure and
// secure systems under on-access prefetching.
func (r *Runner) Fig3() (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "L1D APKI split (load/prefetch/commit), on-access prefetching",
		Header: []string{"prefetcher", "system", "load", "prefetch", "commit", "total"},
	}
	add := func(name string, v cfgVariant, system string) error {
		var apki [3]float64
		for i, part := range []func(*sim.Result) float64{
			func(res *sim.Result) float64 { return res.L1DAPKI().Load },
			func(res *sim.Result) float64 { return res.L1DAPKI().Prefetch },
			func(res *sim.Result) float64 { return res.L1DAPKI().Commit },
		} {
			m, err := r.metric(v, part)
			if err != nil {
				return err
			}
			apki[i] = m
		}
		t.AddRow(name, system, f1(apki[0]), f1(apki[1]), f1(apki[2]), f1(apki[0]+apki[1]+apki[2]))
		return nil
	}
	if err := add("no-pref", baseNonSecure(), "non-secure"); err != nil {
		return nil, err
	}
	if err := add("no-pref", baseSecure(), "secure"); err != nil {
		return nil, err
	}
	for _, pf := range Prefetchers {
		if err := add(pf, onAccessNonSecure(pf), "non-secure"); err != nil {
			return nil, err
		}
		if err := add(pf, onAccessSecure(pf), "secure"); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "paper shape: secure system roughly doubles L1D APKI via commit requests (199 -> 375 APKI without prefetching)")
	return t, nil
}

// Fig4 reproduces Figure 4: average L1D load miss latency under
// on-access prefetching for the four system/prefetch combinations.
func (r *Runner) Fig4() (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "Average L1D load miss latency (cycles), on-access prefetching",
		Header: []string{"prefetcher", "on-access/non-secure", "on-access/secure", "no-pref/non-secure", "no-pref/secure"},
	}
	baseNS, err := r.metric(baseNonSecure(), (*sim.Result).LoadMissLatency)
	if err != nil {
		return nil, err
	}
	baseS, err := r.metric(baseSecure(), (*sim.Result).LoadMissLatency)
	if err != nil {
		return nil, err
	}
	for _, pf := range Prefetchers {
		ns, err := r.metric(onAccessNonSecure(pf), (*sim.Result).LoadMissLatency)
		if err != nil {
			return nil, err
		}
		s, err := r.metric(onAccessSecure(pf), (*sim.Result).LoadMissLatency)
		if err != nil {
			return nil, err
		}
		t.AddRow(pf, f1(ns), f1(s), f1(baseNS), f1(baseS))
	}
	t.Notes = append(t.Notes, "paper shape: prefetching raises miss latency, more so with the secure system's extra traffic")
	return t, nil
}

// Fig5 reproduces Figure 5: the 605.mcf-1554B case study — (a) speedup,
// (b) L1D APKI split, (c) L1D load miss latency — for no-pref and each
// prefetcher on both systems with on-access prefetching.
func (r *Runner) Fig5() (*Table, error) {
	const tr = "605.mcf-1554B"
	t := &Table{
		ID:     "fig5",
		Title:  "605.mcf-1554B case study (on-access prefetching)",
		Header: []string{"config", "speedup", "APKI-load", "APKI-pref", "APKI-commit", "miss-lat"},
	}
	base, err := r.result(tr, baseNonSecure())
	if err != nil {
		return nil, err
	}
	add := func(v cfgVariant) error {
		res, err := r.result(tr, v)
		if err != nil {
			return err
		}
		ap := res.L1DAPKI()
		t.AddRow(v.label, f3(res.Speedup(base)), f1(ap.Load), f1(ap.Prefetch), f1(ap.Commit), f1(res.LoadMissLatency()))
		return nil
	}
	variants := []cfgVariant{baseNonSecure(), baseSecure()}
	for _, pf := range Prefetchers {
		variants = append(variants, onAccessNonSecure(pf), onAccessSecure(pf))
	}
	for _, v := range variants {
		if err := add(v); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "paper shape: on mcf the secure system erases most of the prefetchers' speedup via traffic-induced contention")
	return t, nil
}

// Fig6 reproduces Figure 6: demand MPKI at the prefetcher's home level,
// classified into uncovered / missed-opportunity / late / commit-late,
// for on-access vs on-commit prefetching on the secure system.
func (r *Runner) Fig6() (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Home-level demand MPKI by coverage/lateness class (secure system)",
		Header: []string{"prefetcher", "mode", "uncovered", "missed-opp", "late", "commit-late", "total"},
	}
	add := func(pf string, v cfgVariant, mode string) error {
		row := []string{pf, mode}
		for _, class := range []func(*sim.Result) uint64{
			func(res *sim.Result) uint64 { return res.Class.Uncovered },
			func(res *sim.Result) uint64 { return res.Class.MissedOpp },
			func(res *sim.Result) uint64 { return res.Class.Late },
			func(res *sim.Result) uint64 { return res.Class.CommitLate },
			func(res *sim.Result) uint64 { return res.Class.TotalMisses },
		} {
			m, err := r.metric(v, kilo(class))
			if err != nil {
				return err
			}
			row = append(row, f2(m))
		}
		t.AddRow(row...)
		return nil
	}
	for _, pf := range Prefetchers {
		if err := add(pf, classified(onAccessSecure(pf)), "on-access"); err != nil {
			return nil, err
		}
		if err := add(pf, classified(onCommitSecure(pf)), "on-commit"); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "paper shape: on-commit reduces uncovered misses but introduces the commit-late class, raising total MPKI")
	return t, nil
}

func perKI(count, instr uint64) float64 {
	if instr == 0 {
		return 0
	}
	return float64(count) * 1000 / float64(instr)
}

// kilo turns a run's event count into its per-kilo-instruction rate.
func kilo(count func(*sim.Result) uint64) func(*sim.Result) float64 {
	return func(res *sim.Result) float64 { return perKI(count(res), res.Instructions) }
}

// Fig10 reproduces Figure 10: speedup of the timely-secure (TS)
// versions against the plain on-commit versions on the secure system.
func (r *Runner) Fig10() (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Timely-secure (TS) prefetcher speedup (normalized to non-secure, no prefetching)",
		Header: []string{"prefetcher", "on-commit/secure", "TS/secure", "TS gain %"},
	}
	secBase, err := r.speedups(baseSecure())
	if err != nil {
		return nil, err
	}
	for _, pf := range Prefetchers {
		com, err := r.speedups(onCommitSecure(pf))
		if err != nil {
			return nil, err
		}
		ts, err := r.speedups(timelySecure(pf))
		if err != nil {
			return nil, err
		}
		g1, g2 := geomean(com), geomean(ts)
		t.AddRow(pf, f3(g1), f3(g2), f2((g2/g1-1)*100))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("no-pref secure reference line: %s", f3(geomean(secBase))),
		"paper: TS versions outperform on-commit by 1.9%-4.1%; TSB (berti row) is the best secure prefetcher")
	return t, nil
}

// Fig11 reproduces Figure 11: the SUF effect — on-access non-secure,
// on-commit secure, and on-commit secure + SUF per prefetcher.
func (r *Runner) Fig11() (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "SUF speedup (normalized to non-secure, no prefetching)",
		Header: []string{"prefetcher", "on-access/non-secure", "on-commit/secure", "on-commit/secure+SUF", "SUF gain %"},
	}
	secBase, err := r.speedups(baseSecure())
	if err != nil {
		return nil, err
	}
	for _, pf := range Prefetchers {
		acc, err := r.speedups(onAccessNonSecure(pf))
		if err != nil {
			return nil, err
		}
		com, err := r.speedups(onCommitSecure(pf))
		if err != nil {
			return nil, err
		}
		suf, err := r.speedups(onCommitSecureSUF(pf))
		if err != nil {
			return nil, err
		}
		gc, gs := geomean(com), geomean(suf)
		t.AddRow(pf, f3(geomean(acc)), f3(gc), f3(gs), f2((gs/gc-1)*100))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("no-pref secure reference line: %s", f3(geomean(secBase))),
		"paper: SUF improves every secure prefetcher, 1.9% (Berti) to 3.7% (Bingo)")
	return t, nil
}

// Fig12 reproduces Figure 12: per-trace speedup of on-commit Berti,
// TSB, and TSB+SUF over the non-secure no-prefetch baseline, for the
// given suite ("spec" for 12a, "gap" for 12b).
func (r *Runner) Fig12(suite string) (*Table, error) {
	t := &Table{
		ID:     "fig12-" + suite,
		Title:  fmt.Sprintf("Per-trace speedup (%s): on-commit Berti vs TSB vs TSB+SUF", suite),
		Header: []string{"trace", "on-commit Berti", "TSB", "TSB+SUF"},
	}
	com, err := r.speedups(onCommitSecure("berti"))
	if err != nil {
		return nil, err
	}
	tsb, err := r.speedups(timelySecure("berti"))
	if err != nil {
		return nil, err
	}
	tsbSUF, err := r.speedups(timelySecureSUF("berti"))
	if err != nil {
		return nil, err
	}
	names := r.sortedTraces(suite)
	suiteGeomean := func(sp map[string]float64) string {
		in := make(map[string]float64, len(names))
		for _, name := range names {
			in[name] = sp[name]
		}
		return f3(geomean(in))
	}
	for _, name := range names {
		t.AddRow(name, f3(com[name]), f3(tsb[name]), f3(tsbSUF[name]))
	}
	t.AddRow("geomean", suiteGeomean(com), suiteGeomean(tsb), suiteGeomean(tsbSUF))
	t.Notes = append(t.Notes, "paper: TSB+SUF never degrades a trace; biggest wins on large-fetch-latency traces (bwaves, bfs)")
	return t, nil
}

// Fig13 reproduces Figure 13: average prefetch accuracy per prefetcher
// for on-access non-secure, on-commit secure (SUF does not change
// accuracy), and the TS versions.
func (r *Runner) Fig13() (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Prefetch accuracy (%)",
		Header: []string{"prefetcher", "on-access/non-secure", "on-commit/secure", "on-commit/secure+SUF", "TS/secure"},
	}
	for _, pf := range Prefetchers {
		home := sim.HomeOf(pf)
		metric := func(res *sim.Result) float64 { return res.PrefAccuracy(home) * 100 }
		acc, err := r.metric(onAccessNonSecure(pf), metric)
		if err != nil {
			return nil, err
		}
		com, err := r.metric(onCommitSecure(pf), metric)
		if err != nil {
			return nil, err
		}
		suf, err := r.metric(onCommitSecureSUF(pf), metric)
		if err != nil {
			return nil, err
		}
		ts, err := r.metric(timelySecure(pf), metric)
		if err != nil {
			return nil, err
		}
		t.AddRow(pf, f1(acc), f1(com), f1(suf), f1(ts))
	}
	t.Notes = append(t.Notes, "paper shape: on-commit loses accuracy (up to 24% for IPCP); SUF leaves accuracy unchanged; TS versions recover it")
	return t, nil
}

// Fig14 reproduces Figure 14: dynamic energy of the memory hierarchy
// normalized to the non-secure no-prefetch baseline.
func (r *Runner) Fig14() (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Normalized dynamic energy (lower is better)",
		Header: []string{"prefetcher", "on-access/non-secure", "on-commit/secure", "on-commit/secure+SUF"},
	}
	// norm is the geomean of v's energy over the baseline's; a trace
	// whose baseline spends none is left out (geomean skips zeros).
	norm := func(v cfgVariant) (float64, error) {
		m, err := perTrace(r, func(tr string) (float64, error) {
			base, err := r.result(tr, baseNonSecure())
			if err != nil {
				return 0, err
			}
			res, err := r.result(tr, v)
			if err != nil || base.Energy.Total() <= 0 {
				return 0, err
			}
			return res.Energy.Total() / base.Energy.Total(), nil
		})
		return geomean(m), err
	}
	secBase, err := norm(baseSecure())
	if err != nil {
		return nil, err
	}
	for _, pf := range Prefetchers {
		a, err := norm(onAccessNonSecure(pf))
		if err != nil {
			return nil, err
		}
		c, err := norm(onCommitSecure(pf))
		if err != nil {
			return nil, err
		}
		s, err := norm(onCommitSecureSUF(pf))
		if err != nil {
			return nil, err
		}
		t.AddRow(pf, f3(a), f3(c), f3(s))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("no-pref secure reference: %s", f3(secBase)),
		"paper: on-commit secure raises energy ~41.8% over on-access; SUF cuts the increase to ~30%")
	return t, nil
}

// SUFAccuracy reports the §VII-A filter-accuracy statistics.
func (r *Runner) SUFAccuracy() (*Table, error) {
	t := &Table{
		ID:     "suf-accuracy",
		Title:  "SUF filter accuracy (TSB+SUF configuration)",
		Header: []string{"trace", "accuracy %", "drops/KI"},
	}
	runs, err := perTrace(r, func(tr string) (*sim.Result, error) { return r.result(tr, timelySecureSUF("berti")) })
	if err != nil {
		return nil, err
	}
	minName, minV := "", 101.0
	sum := 0.0
	for _, name := range r.opts.Traces {
		res := runs[name]
		acc := res.SUFAccuracy() * 100
		if acc < minV {
			minName, minV = name, acc
		}
		sum += acc
		t.AddRow(name, f1(acc), f1(perKI(res.Core.SUFDrops, res.Instructions)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average accuracy %.1f%%, minimum %.1f%% (%s)", sum/float64(len(r.opts.Traces)), minV, minName),
		"paper: average 99.3%, minimum 87.26% (605.mcf-1554B)")
	return t, nil
}
