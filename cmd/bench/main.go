// Command bench measures the simulator's hot-path throughput and emits
// (or checks) a machine-readable baseline, so performance regressions
// fail loudly instead of rotting silently.
//
// The scenario mirrors BenchmarkSimulatorThroughput: the full secure
// single-core system (GhostMinion + TSB + SUF + Berti) over 50k
// instructions of 602.gcc-1850B — the heaviest configuration the paper
// evaluates.
//
// Usage:
//
//	bench                     # print measurement as JSON to stdout
//	bench -runs 5             # 5 interleaved plain/probed pairs; best
//	                          # of each, median per-pair probe overhead
//	bench -update FILE        # rewrite FILE's "after" section in place
//	bench -check FILE -tol 25 # exit 1 if >tol% slower than FILE's "after"
//	bench -history FILE       # append a JSONL record; exit 1 if >tol%
//	                          # slower than the median of the last 5
//	bench -cpuprofile cpu.out # also write a CPU profile of the runs
//	bench -memprofile mem.out # also write an allocation profile
//	bench -simprofile PATH    # also write the engine-attribution
//	                          # sim-profile table (PATH.json, PATH.csv)
//	                          # and fail if any single rank holds more
//	                          # than -max-tick-share of engine ticks
//
// -check additionally enforces allocs/op against the baseline record
// (-alloc-tol percent headroom): single-core against the "after"
// section, -multicore against both the lockstep and parallel records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"secpref/internal/export"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// Measurement is one benchmark observation.
type Measurement struct {
	Date          string  `json:"date,omitempty"`
	GoVersion     string  `json:"go_version,omitempty"`
	EngineVersion string  `json:"engine_version,omitempty"`
	NsPerOp       float64 `json:"ns_per_op"`
	InstrsPerSec  float64 `json:"instrs_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// Baseline is the checked-in before/after record (BENCH_baseline.json).
// Probed measures the same scenario with the observability layer
// attached (interval sampler + lifecycle tracer, campaign sizing);
// ProbeOverheadPct is its slowdown relative to After.
type Baseline struct {
	Benchmark        string      `json:"benchmark"`
	Scenario         string      `json:"scenario"`
	Before           Measurement `json:"before"`
	After            Measurement `json:"after"`
	Speedup          float64     `json:"speedup"`
	Probed           Measurement `json:"probed"`
	ProbeOverheadPct float64     `json:"probe_overhead_pct"`
	// Multicore is the 4-core engine's section, written and checked by
	// the -multicore mode; single-core invocations leave it untouched.
	Multicore *MulticoreBaseline `json:"multicore,omitempty"`
}

const scenario = "602.gcc-1850B, 50k instrs, secure GhostMinion + TSB + SUF + Berti"

// MulticoreBaseline is the 4-core engine's before/after record inside
// BENCH_baseline.json: the serial lockstep reference versus the
// barrier-parallel engine over the same mix (bit-identical output, the
// measurement enforces it).
type MulticoreBaseline struct {
	Scenario string      `json:"scenario"`
	Lockstep Measurement `json:"lockstep"`
	Parallel Measurement `json:"parallel"`
	Speedup  float64     `json:"speedup"`
	// Observed is the parallel engine with the full observer complement
	// attached (interference observatory, per-core window samplers,
	// shared-domain tracer); ObserverOverheadPct is its slowdown
	// relative to Parallel.
	Observed            Measurement `json:"observed"`
	ObserverOverheadPct float64     `json:"observer_overhead_pct"`
}

// The bench scenario is rate mode (four copies of the memory-bound
// mcf trace, disjoint address spaces): every core spends most cycles
// waiting on the shared DRAM, which is both the contention case the
// paper's multi-core study is about and the one where the event
// engine's idle-skipping has cycles to reclaim. A compute-bound mix
// ticks every component every cycle on either engine.
const mcScenario = "4-core rate 605.mcf-1554B, 10k instrs/core, secure GhostMinion + TSB + SUF + Berti"

var mcTraces = []string{"605.mcf-1554B", "605.mcf-1554B", "605.mcf-1554B", "605.mcf-1554B"}

func multicoreConfig() multicore.Config {
	cfg := multicore.DefaultConfig()
	cfg.Single.WarmupInstrs = 2000
	cfg.Single.MaxInstrs = 10_000
	cfg.Single.Secure = true
	cfg.Single.SUF = true
	cfg.Single.Prefetcher = "berti"
	cfg.Single.Mode = sim.ModeTimelySecure
	return cfg
}

// Multicore engine flavors measured by -multicore.
const (
	mcLockstep = iota // serial lockstep reference
	mcParallel        // barrier-parallel engine, unobserved
	mcObserved        // barrier-parallel with the full observer complement
)

// mcObservedProbes arms the campaign-style observer complement the
// overhead gate prices: the interference observatory, one interval
// sampler per core, and a shared-domain lifecycle tracer.
func mcObservedProbes(cores int) multicore.Probes {
	windows := make([]probe.WindowObserver, cores)
	for i := range windows {
		windows[i] = probe.NewIntervalSampler(16)
	}
	return multicore.Probes{
		Interference:   true,
		Windows:        windows,
		WindowInstrs:   1000,
		SharedObserver: probe.NewTracer(32, 1<<13),
	}
}

// measureMulticoreOnce times one 4-core run on the selected engine
// flavor and fingerprints its full Result. InstrsPerSec counts
// instructions retired across all cores in the measured window.
func measureMulticoreOnce(kind int) (Measurement, uint64, error) {
	mix := make([]trace.Source, len(mcTraces))
	for i, n := range mcTraces {
		tr, err := workload.Get(n, workload.Params{Instrs: 12_000, Seed: 1})
		if err != nil {
			return Measurement{}, 0, err
		}
		mix[i] = trace.NewSource(tr)
	}
	var p multicore.Probes
	switch kind {
	case mcLockstep:
		p = multicore.Probes{ReferenceEngine: true}
	case mcObserved:
		p = mcObservedProbes(len(mcTraces))
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := multicore.RunProbed(multicoreConfig(), mix, p)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return Measurement{}, 0, err
	}
	// Hash the architectural outcome only: the observed flavor's digest
	// must equal the plain engines' (observers never change results),
	// which the snapshot itself would trivially break.
	res.Interference = nil
	var instrs uint64
	for _, rc := range res.PerCore {
		instrs += rc.Instructions
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return Measurement{}, 0, err
	}
	return Measurement{
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		EngineVersion: sim.EngineVersion,
		NsPerOp:       float64(elapsed.Nanoseconds()),
		InstrsPerSec:  float64(instrs) / elapsed.Seconds(),
		AllocsPerOp:   float64(ms1.Mallocs - ms0.Mallocs),
	}, observatory.HashBytes(raw), nil
}

// better folds one fresh measurement into the best-of record: best
// time and minimum allocations, tracked independently (the simulation's
// allocation count is deterministic; MemStats noise only inflates it).
func better(best, m Measurement) Measurement {
	if m.NsPerOp < best.NsPerOp {
		a := best.AllocsPerOp
		best = m
		best.AllocsPerOp = a
	}
	if m.AllocsPerOp < best.AllocsPerOp {
		best.AllocsPerOp = m.AllocsPerOp
	}
	return best
}

// measureMulticore interleaves lockstep/parallel/observed triples (same
// drift cancellation as measure) and insists on one digest across all
// three flavors and every run — the speedup and the observer overhead
// are only meaningful if the outputs are bit-identical.
func measureMulticore(runs int) (lockstep, parallel, observed Measurement, speedup, observerPct float64, digest uint64, err error) {
	if _, _, err = measureMulticoreOnce(mcParallel); err != nil {
		return
	}
	for i := 0; i < runs; i++ {
		var l, p, o Measurement
		var ld, pd, od uint64
		if l, ld, err = measureMulticoreOnce(mcLockstep); err != nil {
			return
		}
		if p, pd, err = measureMulticoreOnce(mcParallel); err != nil {
			return
		}
		if o, od, err = measureMulticoreOnce(mcObserved); err != nil {
			return
		}
		if ld != pd {
			err = fmt.Errorf("parallel engine changed the simulation output: digest %#x != %#x", pd, ld)
			return
		}
		if od != pd {
			err = fmt.Errorf("observers changed the simulation output: digest %#x != %#x", od, pd)
			return
		}
		if digest != 0 && ld != digest {
			err = fmt.Errorf("non-deterministic simulation output: digest %#x != %#x", ld, digest)
			return
		}
		digest = ld
		if i == 0 {
			lockstep, parallel, observed = l, p, o
		}
		lockstep = better(lockstep, l)
		parallel = better(parallel, p)
		observed = better(observed, o)
	}
	// Overhead compares the best-of times, not per-pair deltas: a single
	// noisy 70ms pair can swing a pairwise median by ±20% on a busy
	// machine, while the minimum over interleaved runs converges on the
	// true cost floor of each flavor.
	observerPct = (observed.NsPerOp/parallel.NsPerOp - 1) * 100
	if observerPct < 0 {
		observerPct = 0
	}
	return lockstep, parallel, observed, lockstep.NsPerOp / parallel.NsPerOp, observerPct, digest, nil
}

// benchConfig is the single-core scenario configuration shared by the
// timed runs and the attribution-profiled run.
func benchConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 0
	cfg.MaxInstrs = 50_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = sim.ModeTimelySecure
	return cfg
}

func measureOnce(probed bool) (Measurement, uint64, error) {
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
	if err != nil {
		return Measurement{}, 0, err
	}
	cfg := benchConfig()

	var probes sim.Probes
	if probed {
		// Campaign-style attachments (cf. internal/experiments): every 32nd
		// load traced into an 8Ki ring, one sample per 1k instructions.
		probes = sim.Probes{
			Observer: probe.NewTracer(32, 1<<13),
			Window:   probe.NewIntervalSampler(52),
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := sim.RunProbed(cfg, trace.NewSource(tr), probes)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return Measurement{}, 0, err
	}
	// The result fingerprint hashes the full serialized Result: identical
	// across runs (the simulator is deterministic), identical between
	// plain and probed (probes never change outcomes), and different
	// whenever a change moves any simulated number.
	raw, err := json.Marshal(res)
	if err != nil {
		return Measurement{}, 0, err
	}
	return Measurement{
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		EngineVersion: sim.EngineVersion,
		NsPerOp:       float64(elapsed.Nanoseconds()),
		InstrsPerSec:  float64(res.Instructions) / elapsed.Seconds(),
		AllocsPerOp:   float64(ms1.Mallocs - ms0.Mallocs),
	}, observatory.HashBytes(raw), nil
}

// median returns the middle value of xs (mean of the two middle values
// for even lengths). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// profiledRun repeats the single-core scenario once with engine
// attribution profiling armed (the timed runs stay unprofiled — the
// per-rank counters are not free) and returns the profile.
func profiledRun() (*observatory.Profile, error) {
	tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
	if err != nil {
		return nil, err
	}
	p := observatory.NewProfile()
	if _, err := sim.RunProbed(benchConfig(), trace.NewSource(tr), sim.Probes{Profile: p}); err != nil {
		return nil, err
	}
	return p, nil
}

// allocGate compares a measured allocation count against its recorded
// baseline. The measurements keep the minimum across runs and MemStats
// noise only ever inflates the count, so the gate can be much tighter
// than the timing tolerance: tolPct relative headroom plus a small
// absolute slack for background runtime allocations.
func allocGate(what string, got, want, tolPct float64) error {
	if want <= 0 {
		return nil // baseline predates alloc recording
	}
	const slack = 64
	if limit := want*(1+tolPct/100) + slack; got > limit {
		return fmt.Errorf("%s allocation regression: %.0f allocs/op exceeds baseline %.0f (limit %.0f = +%.0f%% +%d)",
			what, got, want, limit, tolPct, slack)
	}
	return nil
}

// clampOverhead turns the per-pair overhead deltas into a headline
// number that cannot report phantom speedups: when the median is
// negative but within the pairing noise band — twice the median
// absolute deviation, floored at half a percentage point — the probes
// are indistinguishable from free and the overhead is 0. A negative
// median beyond the band is kept as-is: that is a real anomaly the
// reader should see, not noise to hide.
func clampOverhead(deltas []float64) float64 {
	med := median(deltas)
	if med >= 0 {
		return med
	}
	dev := make([]float64, len(deltas))
	for i, d := range deltas {
		dev[i] = d - med
		if dev[i] < 0 {
			dev[i] = -dev[i]
		}
	}
	band := 2 * median(dev)
	if band < 0.5 {
		band = 0.5
	}
	if -med <= band {
		return 0
	}
	return med
}

// measure runs plain and probed back to back `runs` times and reports
// the best of each plus the noise-clamped median per-pair probe
// overhead and the simulation's output digest. Pairing the two within
// each iteration cancels the drift (page cache, frequency scaling,
// heap shape) that made two sequential best-of-N batches report a
// negative overhead: the second batch always ran warmer.
func measure(runs int) (plain, probed Measurement, overheadPct float64, digest uint64, err error) {
	// One untimed warmup pair (page cache, branch predictors, heap shape).
	if _, _, err = measureOnce(false); err != nil {
		return
	}
	if _, _, err = measureOnce(true); err != nil {
		return
	}
	deltas := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		var m, p Measurement
		var md, pd uint64
		if m, md, err = measureOnce(false); err != nil {
			return
		}
		if p, pd, err = measureOnce(true); err != nil {
			return
		}
		if md != pd {
			err = fmt.Errorf("probed run changed the simulation output: digest %#x != %#x", pd, md)
			return
		}
		if digest != 0 && md != digest {
			err = fmt.Errorf("non-deterministic simulation output: digest %#x != %#x", md, digest)
			return
		}
		digest = md
		deltas = append(deltas, (p.NsPerOp/m.NsPerOp-1)*100)
		// Best time, minimum allocations: the sim's allocation count is
		// deterministic, and MemStats noise (background runtime goroutines)
		// only ever inflates it.
		if i == 0 {
			plain, probed = m, p
		}
		if m.NsPerOp < plain.NsPerOp {
			a := plain.AllocsPerOp
			plain = m
			plain.AllocsPerOp = a
		}
		if m.AllocsPerOp < plain.AllocsPerOp {
			plain.AllocsPerOp = m.AllocsPerOp
		}
		if p.NsPerOp < probed.NsPerOp {
			a := probed.AllocsPerOp
			probed = p
			probed.AllocsPerOp = a
		}
		if p.AllocsPerOp < probed.AllocsPerOp {
			probed.AllocsPerOp = p.AllocsPerOp
		}
	}
	return plain, probed, clampOverhead(deltas), digest, nil
}

// HistoryRecord is one line of BENCH_history.jsonl: enough context to
// explain a throughput shift (engine version, scenario, toolchain) and
// an output digest so behavioral changes are distinguishable from pure
// performance ones.
type HistoryRecord struct {
	Date              string  `json:"date"`
	GoVersion         string  `json:"go_version"`
	EngineVersion     string  `json:"engine_version"`
	Scenario          string  `json:"scenario"`
	NsPerOp           float64 `json:"ns_per_op"`
	InstrsPerSec      float64 `json:"instrs_per_sec"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
	ProbedNsPerOp     float64 `json:"probed_ns_per_op"`
	ProbedAllocsPerOp float64 `json:"probed_allocs_per_op"`
	ProbeOverheadPct  float64 `json:"probe_overhead_pct"`
	OutputDigest      string  `json:"output_digest"`
	// Multicore-mode extras: the serial reference's time and the
	// parallel engine's speedup over it.
	LockstepNsPerOp   float64 `json:"lockstep_ns_per_op,omitempty"`
	SpeedupVsLockstep float64 `json:"speedup_vs_lockstep,omitempty"`
}

// readHistory parses a JSONL history file, ignoring blank lines. A
// missing file is an empty history, not an error.
func readHistory(path string) ([]HistoryRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var recs []HistoryRecord
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r HistoryRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// checkHistory compares rec against the median NsPerOp of the last (up
// to) 5 prior same-scenario records — the median absorbs one noisy CI
// runner — and reports a non-nil error when rec is more than tol%
// slower. It also returns a human note when the output digest moved,
// which is informational: a modeling change legitimately shifts the
// digest, but the reader should know the comparison crosses one.
func checkHistory(prior []HistoryRecord, rec HistoryRecord, tol float64) (note string, err error) {
	var same []HistoryRecord
	for _, p := range prior {
		if p.Scenario == rec.Scenario {
			same = append(same, p)
		}
	}
	if len(same) == 0 {
		return "no prior history for this scenario; recorded as first entry", nil
	}
	if len(same) > 5 {
		same = same[len(same)-5:]
	}
	ns := make([]float64, len(same))
	for i, p := range same {
		ns[i] = p.NsPerOp
	}
	ref := median(ns)
	slowdown := (rec.NsPerOp/ref - 1) * 100
	note = fmt.Sprintf("vs median of last %d record(s): %+.1f%% (tolerance %.0f%%)", len(same), slowdown, tol)
	if last := same[len(same)-1]; last.OutputDigest != rec.OutputDigest {
		note += fmt.Sprintf("; output digest changed (%s -> %s)", last.OutputDigest, rec.OutputDigest)
	}
	if slowdown > tol {
		return note, fmt.Errorf("throughput regression: %.1f ms/op is %.1f%% slower than history median %.1f ms/op (tolerance %.0f%%)",
			rec.NsPerOp/1e6, slowdown, ref/1e6, tol)
	}
	return note, nil
}

func main() {
	runs := flag.Int("runs", 3, "measurement runs (best is reported)")
	update := flag.String("update", "", "baseline file whose 'after' section to rewrite")
	check := flag.String("check", "", "baseline file to compare against")
	history := flag.String("history", "", "JSONL history file to append to and regression-check against")
	tol := flag.Float64("tol", 25, "allowed slowdown vs baseline 'after', percent")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	mcMode := flag.Bool("multicore", false, "measure the 4-core engine (parallel vs serial lockstep) instead of the single-core scenario")
	minSpeedup := flag.Float64("min-speedup", 0, "with -multicore: fail unless the parallel engine beats lockstep by this factor")
	// 25% prices reality, not aspiration: the full observer complement
	// costs ~10% on a 4-worker box (the event stream rides the serial
	// shared-domain phase, so its cost lands on the barrier critical
	// path undiluted), and flavor-to-flavor wall noise adds ±10%. The
	// sharp zero-tolerance gate is the deterministic allocs budget; this
	// one catches an accidental map, alloc, or lock on the event path.
	observerTol := flag.Float64("observer-tol", 25, "with -multicore: fail if the observed engine (interference observatory + samplers + tracer) is more than this percent slower than plain parallel")
	allocTol := flag.Float64("alloc-tol", 50, "allowed allocs/op growth vs baseline in -check mode, percent (plus a fixed 64-alloc slack)")
	simProfile := flag.String("simprofile", "", "write the single-core sim-profile table as PATH.json and PATH.csv and gate on -max-tick-share")
	maxTickShare := flag.Float64("max-tick-share", 0.40, "with -simprofile: fail if any single rank holds more than this fraction of engine ticks")
	flag.Parse()
	if *simProfile != "" && *mcMode {
		fmt.Fprintln(os.Stderr, "bench: -simprofile applies to the single-core scenario; drop -multicore")
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -runs must be at least 1")
		os.Exit(2)
	}

	// The profiles cover exactly what the measurement does: every timed
	// plain/probed pair (plus the warmup pair, which profiles the same
	// code). Profiling perturbs the timings slightly, so numbers from a
	// profiled run should not be fed to -update.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	var m, mp, lockstep, observed Measurement
	var overhead, speedup, observerPct float64
	var digest uint64
	var err error
	if *mcMode {
		lockstep, m, observed, speedup, observerPct, digest, err = measureMulticore(*runs)
	} else {
		m, mp, overhead, digest, err = measure(*runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *mcMode && *minSpeedup > 0 && speedup < *minSpeedup {
		fmt.Fprintf(os.Stderr, "bench: parallel engine speedup %.2fx below required %.2fx (lockstep %.1f ms/op, parallel %.1f ms/op)\n",
			speedup, *minSpeedup, lockstep.NsPerOp/1e6, m.NsPerOp/1e6)
		os.Exit(1)
	}
	if *mcMode && *observerTol > 0 && observerPct > *observerTol {
		fmt.Fprintf(os.Stderr, "bench: observer overhead %.1f%% exceeds %.0f%% (plain %.1f ms/op, observed %.1f ms/op) — the observatory's event path has gained real per-event cost (map? alloc? lock?)\n",
			observerPct, *observerTol, m.NsPerOp/1e6, observed.NsPerOp/1e6)
		os.Exit(1)
	}

	if *simProfile != "" {
		// One extra attribution-profiled run (outside the timed pairs):
		// export the per-rank table and refuse a profile where any single
		// component re-dominates — the flat profile is a maintained
		// property, not an accident.
		prof, err := profiledRun()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := export.WriteFiles(filepath.Dir(*simProfile), prof.Files(filepath.Base(*simProfile), "")...); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("sim-profile table in %s.json and %s.csv\n", *simProfile, *simProfile)
		for _, row := range prof.Table() {
			if row.TickShare > *maxTickShare {
				fmt.Fprintf(os.Stderr, "bench: rank %q holds %.1f%% of engine ticks (max %.0f%%) — one component re-dominates the profile\n",
					row.Rank, 100*row.TickShare, 100**maxTickShare)
				os.Exit(1)
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		runtime.GC() // flush accumulated allocation records
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		f.Close()
	}

	switch {
	case *update != "":
		var b Baseline
		if data, err := os.ReadFile(*update); err == nil {
			if err := json.Unmarshal(data, &b); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *update, err)
				os.Exit(1)
			}
		}
		if *mcMode {
			b.Multicore = &MulticoreBaseline{
				Scenario:            mcScenario,
				Lockstep:            lockstep,
				Parallel:            m,
				Speedup:             speedup,
				Observed:            observed,
				ObserverOverheadPct: observerPct,
			}
		} else {
			b.Benchmark = "SimulatorThroughput"
			b.Scenario = scenario
			b.After = m
			b.Probed = mp
			if b.Before.NsPerOp > 0 {
				b.Speedup = b.Before.NsPerOp / b.After.NsPerOp
			}
			b.ProbeOverheadPct = overhead
		}
		out, _ := json.MarshalIndent(&b, "", "  ")
		if err := os.WriteFile(*update, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *mcMode {
			fmt.Printf("updated %s: 4-core parallel %.1f ms/op (%.0f instrs/s), lockstep %.1f ms/op, %.2fx; observed %.1f ms/op (%.1f%% overhead)\n",
				*update, m.NsPerOp/1e6, m.InstrsPerSec, lockstep.NsPerOp/1e6, speedup, observed.NsPerOp/1e6, observerPct)
		} else {
			fmt.Printf("updated %s: %.1f ms/op, %.0f instrs/s, %.0fx vs before; probed %.1f ms/op (%.1f%% overhead)\n",
				*update, m.NsPerOp/1e6, m.InstrsPerSec, b.Speedup, mp.NsPerOp/1e6, b.ProbeOverheadPct)
		}
	case *check != "":
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		var b Baseline
		if err := json.Unmarshal(data, &b); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *check, err)
			os.Exit(1)
		}
		if *mcMode {
			if b.Multicore == nil {
				fmt.Fprintf(os.Stderr, "bench: %s has no multicore section; run -multicore -update first\n", *check)
				os.Exit(1)
			}
			slowdown := (m.NsPerOp/b.Multicore.Parallel.NsPerOp - 1) * 100
			fmt.Printf("multicore: %.1f ms/op (%.0f instrs/s, %.2fx vs lockstep); baseline: %.1f ms/op; slowdown %.1f%% (tolerance %.0f%%)\n",
				m.NsPerOp/1e6, m.InstrsPerSec, speedup, b.Multicore.Parallel.NsPerOp/1e6, slowdown, *tol)
			fmt.Printf("multicore observed: %.1f ms/op (%.1f%% observer overhead, %.0f allocs); baseline: %.1f ms/op (%.1f%%)\n",
				observed.NsPerOp/1e6, observerPct, observed.AllocsPerOp,
				b.Multicore.Observed.NsPerOp/1e6, b.Multicore.ObserverOverheadPct)
			fmt.Printf("multicore allocs/op: lockstep %.0f (baseline %.0f), parallel %.0f (baseline %.0f), alloc tolerance %.0f%%\n",
				lockstep.AllocsPerOp, b.Multicore.Lockstep.AllocsPerOp,
				m.AllocsPerOp, b.Multicore.Parallel.AllocsPerOp, *allocTol)
			if slowdown > *tol {
				fmt.Fprintln(os.Stderr, "bench: performance regression beyond tolerance")
				os.Exit(1)
			}
			if b.Multicore.Observed.NsPerOp > 0 {
				if obsSlow := (observed.NsPerOp/b.Multicore.Observed.NsPerOp - 1) * 100; obsSlow > *tol {
					fmt.Fprintf(os.Stderr, "bench: observed-engine regression: %.1f%% slower than baseline (tolerance %.0f%%)\n", obsSlow, *tol)
					os.Exit(1)
				}
			}
			// Both engine flavors' allocation counts are enforced the same
			// way the single-core figure is: the hot paths are supposed to
			// be allocation-free, so growth here is a leak, not noise.
			for _, g := range []struct {
				what      string
				got, want float64
			}{
				{"multicore lockstep", lockstep.AllocsPerOp, b.Multicore.Lockstep.AllocsPerOp},
				{"multicore parallel", m.AllocsPerOp, b.Multicore.Parallel.AllocsPerOp},
				{"multicore observed", observed.AllocsPerOp, b.Multicore.Observed.AllocsPerOp},
			} {
				if err := allocGate(g.what, g.got, g.want, *allocTol); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
			}
			break
		}
		slowdown := (m.NsPerOp/b.After.NsPerOp - 1) * 100
		fmt.Printf("current: %.1f ms/op (%.0f instrs/s); baseline: %.1f ms/op; slowdown %.1f%% (tolerance %.0f%%)\n",
			m.NsPerOp/1e6, m.InstrsPerSec, b.After.NsPerOp/1e6, slowdown, *tol)
		fail := slowdown > *tol
		if b.Probed.NsPerOp > 0 {
			probedSlowdown := (mp.NsPerOp/b.Probed.NsPerOp - 1) * 100
			fmt.Printf("probed:  %.1f ms/op (%.0f instrs/s, %.0f allocs); baseline: %.1f ms/op; slowdown %.1f%%\n",
				mp.NsPerOp/1e6, mp.InstrsPerSec, mp.AllocsPerOp, b.Probed.NsPerOp/1e6, probedSlowdown)
			fail = fail || probedSlowdown > *tol
		}
		if fail {
			fmt.Fprintln(os.Stderr, "bench: performance regression beyond tolerance")
			os.Exit(1)
		}
		if err := allocGate("single-core", m.AllocsPerOp, b.After.AllocsPerOp, *allocTol); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	default:
		if *history != "" {
			break
		}
		if *mcMode {
			out, _ := json.MarshalIndent(&struct {
				Lockstep            Measurement `json:"lockstep"`
				Parallel            Measurement `json:"parallel"`
				Observed            Measurement `json:"observed"`
				Speedup             float64     `json:"speedup"`
				ObserverOverheadPct float64     `json:"observer_overhead_pct"`
				OutputDigest        string      `json:"output_digest"`
			}{lockstep, m, observed, speedup, observerPct, fmt.Sprintf("%016x", digest)}, "", "  ")
			fmt.Println(string(out))
			break
		}
		out, _ := json.MarshalIndent(&struct {
			Plain            Measurement `json:"plain"`
			Probed           Measurement `json:"probed"`
			ProbeOverheadPct float64     `json:"probe_overhead_pct"`
			OutputDigest     string      `json:"output_digest"`
		}{m, mp, overhead, fmt.Sprintf("%016x", digest)}, "", "  ")
		fmt.Println(string(out))
	}

	if *history != "" {
		prior, err := readHistory(*history)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rec := HistoryRecord{
			Date:              m.Date,
			GoVersion:         m.GoVersion,
			EngineVersion:     m.EngineVersion,
			Scenario:          scenario,
			NsPerOp:           m.NsPerOp,
			InstrsPerSec:      m.InstrsPerSec,
			AllocsPerOp:       m.AllocsPerOp,
			ProbedNsPerOp:     mp.NsPerOp,
			ProbedAllocsPerOp: mp.AllocsPerOp,
			ProbeOverheadPct:  overhead,
			OutputDigest:      fmt.Sprintf("%016x", digest),
		}
		if *mcMode {
			// Its own scenario string keeps checkHistory's same-scenario
			// median from mixing single- and multi-core records. The probed
			// slots carry the observed-engine figures so the interference
			// observatory's overhead shows up in the same trend lines.
			rec.Scenario = mcScenario
			rec.LockstepNsPerOp = lockstep.NsPerOp
			rec.SpeedupVsLockstep = speedup
			rec.ProbedNsPerOp = observed.NsPerOp
			rec.ProbedAllocsPerOp = observed.AllocsPerOp
			rec.ProbeOverheadPct = observerPct
		}
		note, herr := checkHistory(prior, rec, *tol)
		// Append before deciding: a regressed record still belongs in the
		// history, and the last-5 median absorbs it going forward.
		line, _ := json.Marshal(&rec)
		f, err := os.OpenFile(*history, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("history %s: appended %.1f ms/op, %.0f instrs/s, %.0f allocs; %s\n",
			*history, rec.NsPerOp/1e6, rec.InstrsPerSec, rec.AllocsPerOp, note)
		if herr != nil {
			fmt.Fprintln(os.Stderr, "bench:", herr)
			os.Exit(1)
		}
	}
}
