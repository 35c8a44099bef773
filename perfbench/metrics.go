package main

import (
	"math"
	"sort"

	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/sim"
	"secpref/internal/stats"
)

// metricDef names one printed metric and its unit; BENCHMARK.json lists
// the same names and units (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are printed by untraced runs.
var endToEnd = []metricDef{
	{"sim_ips", "instr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ipc", "instr/cycle"},
}

// perLayer are printed by traced runs. A metric that does not apply to
// the workload reads 0 (the README lists which apply where).
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"sim.build_s", "s"},
	{"trace.read_s", "s"},
	{"trace.batches", "count"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.advances", "count"},
	{"sim.skip_frac", "frac"},
	{"sim.ticks.core", "count"},
	{"sim.ticks.gm", "count"},
	{"sim.ticks.l1d", "count"},
	{"sim.ticks.l2", "count"},
	{"sim.ticks.llc", "count"},
	{"sim.ticks.dram", "count"},
	{"sim.ticks.link", "count"},
	{"cpu.tick_s", "s"},
	{"ghostminion.tick_s", "s"},
	{"cache.l1d.tick_s", "s"},
	{"cache.l2.tick_s", "s"},
	{"cache.llc.tick_s", "s"},
	{"dram.tick_s", "s"},
	{"multicore.cpu_s", "s"},
	{"multicore.parallelism", "cpu_s/s"},
	{"probe.export_s", "s"},
	{"observatory.export_s", "s"},
	{"interference.export_s", "s"},
	{"sim.allocs", "count"},
	{"sim.alloc_mb", "MB"},
	{"sim.gc_pause_s", "s"},
	{"bpred.mpki", "1/kinstr"},
	{"cpu.lq_full_frac", "frac"},
	{"cpu.load_miss_lat_cyc", "cycles"},
	{"ghostminion.mpki", "1/kinstr"},
	{"ghostminion.refetch_pki", "1/kinstr"},
	{"core.suf_drops_pki", "1/kinstr"},
	{"core.suf_accuracy", "frac"},
	{"cache.l1d.apki_load", "1/kinstr"},
	{"cache.l1d.apki_prefetch", "1/kinstr"},
	{"cache.l1d.apki_commit", "1/kinstr"},
	{"cache.l1d.mpki", "1/kinstr"},
	{"cache.l2.mpki", "1/kinstr"},
	{"cache.llc.mpki", "1/kinstr"},
	{"cache.l1d.mshr_full_frac", "frac"},
	{"prefetch.issued_pki", "1/kinstr"},
	{"prefetch.accuracy", "frac"},
	{"prefetch.late_frac", "frac"},
	{"dram.rpki", "1/kinstr"},
	{"dram.row_hit_rate", "frac"},
	{"dram.lat_cyc", "cycles"},
	{"bench.tracing_overhead", "frac"},
	{"bench.layer_closure", "frac"},
}

// roundLayerMetrics derives one traced round's per-layer metrics from
// the spans under its round span (spans[from:]) and its counters.
func roundLayerMetrics(spans []span, from int, rt *roundTrace, ops []opResult, multi bool) map[string]float64 {
	m := map[string]float64{}
	self := selfTimes(spans, from)
	dur, count := totals(spans, from)
	m["sim.run_s"] = (dur["sim.run"] + dur["multicore.run"]).Seconds()
	m["sim.self_s"] = self["sim.run"].Seconds()
	m["trace.read_s"] = dur["trace.read"].Seconds()
	m["trace.batches"] = float64(count["trace.read"])
	for _, l := range rankLayers {
		m[l+"_s"] = self[l].Seconds()
	}
	for _, l := range []string{"probe.export", "observatory.export", "interference.export"} {
		m[l+"_s"] = dur[l].Seconds()
	}
	if multi {
		m["multicore.cpu_s"] = rt.cpu.Seconds()
		if run := dur["multicore.run"]; run > 0 {
			m["multicore.parallelism"] = float64(rt.cpu) / float64(run)
		}
	}
	m["sim.allocs"] = float64(rt.allocs)
	m["sim.alloc_mb"] = float64(rt.allocByte) / 1e6
	m["sim.gc_pause_s"] = rt.gcPause.Seconds()
	engineMetrics(m, rt.profile)
	var results []*sim.Result
	for _, op := range ops {
		results = append(results, op.results...)
	}
	modeledMetrics(m, results, multi)
	return m
}

// engineMetrics adds the exact engine counts of the round's merged
// attribution profile.
func engineMetrics(m map[string]float64, p *observatory.Profile) {
	m["sim.advances"] = float64(p.Advances)
	m["sim.skip_frac"] = p.SkipEfficiency()
	for _, r := range p.Ranks {
		m["sim.ticks."+r.Name] = float64(r.Ticks)
	}
}

// modeledMetrics adds the simulated-time layer metrics. Counts are
// summed over the round's simulations and ratios recomputed from the
// sums. In a 4-core mix every core's Result repeats the shared LLC and
// DRAM block, so those count once.
func modeledMetrics(m map[string]float64, rs []*sim.Result, shared bool) {
	var ins, cycles, mispred, lqFull, latSum, latCnt uint64
	var gmMiss, refetch, sufDrops, sufWrong uint64
	var l1dMiss, l2Miss, llcMiss, mshrFull, l1dCycles uint64
	var issued, filled, useful, late uint64
	var dramReads, rowHits, rowMisses, dramLat, dramLatCnt uint64
	var apkiLoad, apkiPref, apkiCommit float64
	for i, r := range rs {
		ins += r.Instructions
		cycles += r.Cycles
		mispred += r.Core.Mispredicts
		lqFull += r.Core.LQFullCycles
		// The core's demand loads see the GM first on a secure system.
		first := &r.L1D
		if r.Config.Secure {
			first = &r.GM
		}
		latSum += first.DemandMissLatSum
		latCnt += first.DemandMissLatCnt
		gmMiss += r.GM.Misses[mem.KindLoad]
		refetch += r.Core.CommitGMMisses
		sufDrops += r.Core.SUFDrops
		sufWrong += r.Core.SUFDropWrong
		// L1DAPKI is per kilo-instruction of this Result; weighting by its
		// instructions sums the underlying counts.
		split := r.L1DAPKI()
		w := float64(r.Instructions)
		apkiLoad += split.Load * w
		apkiPref += split.Prefetch * w
		apkiCommit += split.Commit * w
		l1dMiss += r.L1D.DemandMisses() + r.L1D.SpecMisses
		l2Miss += r.L2.DemandMisses() + r.L2.SpecMisses
		mshrFull += r.L1D.MSHRFullCycles
		l1dCycles += r.L1D.Cycles
		levels := []*stats.CacheStats{&r.GM, &r.L1D, &r.L2}
		if !shared || i == 0 {
			levels = append(levels, &r.LLC)
			llcMiss += r.LLC.DemandMisses() + r.LLC.SpecMisses
			dramReads += r.DRAM.Reads
			rowHits += r.DRAM.RowHits
			rowMisses += r.DRAM.RowMisses
			dramLat += r.DRAM.LatencySum
			dramLatCnt += r.DRAM.LatCnt
		}
		for _, s := range levels {
			issued += s.PrefIssued
			filled += s.PrefFilled
			useful += s.PrefUseful
			late += s.PrefLate
		}
	}
	pki := func(c uint64) float64 { return stats.PerKI(c, ins) }
	m["bpred.mpki"] = pki(mispred)
	m["cpu.lq_full_frac"] = ratio(lqFull, cycles)
	m["cpu.load_miss_lat_cyc"] = ratio(latSum, latCnt)
	m["ghostminion.mpki"] = pki(gmMiss)
	m["ghostminion.refetch_pki"] = pki(refetch)
	m["core.suf_drops_pki"] = pki(sufDrops)
	m["core.suf_accuracy"] = ratio(sufDrops-sufWrong, sufDrops)
	if ins > 0 {
		m["cache.l1d.apki_load"] = apkiLoad / float64(ins)
		m["cache.l1d.apki_prefetch"] = apkiPref / float64(ins)
		m["cache.l1d.apki_commit"] = apkiCommit / float64(ins)
	}
	m["cache.l1d.mpki"] = pki(l1dMiss)
	m["cache.l2.mpki"] = pki(l2Miss)
	m["cache.llc.mpki"] = pki(llcMiss)
	m["cache.l1d.mshr_full_frac"] = ratio(mshrFull, l1dCycles)
	m["prefetch.issued_pki"] = pki(issued)
	m["prefetch.accuracy"] = ratio(useful, filled)
	m["prefetch.late_frac"] = ratio(late, useful+late)
	m["dram.rpki"] = pki(dramReads)
	m["dram.row_hit_rate"] = ratio(rowHits, rowHits+rowMisses)
	m["dram.lat_cyc"] = ratio(dramLat, dramLatCnt)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median returns the middle value of xs (mean of the two middle values
// for even lengths) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
