package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// traceNames are the four trace classes the paper's argument rests on,
// the same set internal/sim/shapes_test.go checks: pointer chasing
// (mcf), streaming (bwaves), stencil (roms) and graph traversal (bfs).
var traceNames = []string{"605.mcf-1554B", "603.bwa-2931B", "654.roms-1007B", "bfs-3B"}

// workloadSpec is one benchmark workload. BENCHMARK.json and README.md
// record why each exists.
type workloadSpec struct {
	name string
	// secure selects the paper's proposed system (GhostMinion, SUF and
	// timely-secure Berti); otherwise the non-secure system without a
	// prefetcher, the paper's normalization baseline.
	secure bool
	// multicore runs the four traces as one 4-core mix on the
	// barrier-parallel engine instead of one after another.
	multicore bool
	// observed attaches the observers a campaign attaches and exports
	// every artifact through the packages' Write functions.
	observed bool
}

var workloads = []workloadSpec{
	{name: "sc-secure", secure: true},
	{name: "sc-base"},
	{name: "mc-mix", secure: true, multicore: true},
	{name: "mc-observed", secure: true, multicore: true, observed: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// size fixes how much work one operation is. The benchmark runs
// benchSize; the tests run a reduced one.
type size struct {
	// warmup and measured are the single-core instruction counts per
	// trace; every trace is generated warmup+measured long.
	warmup, measured int
	// instances is how many traces of each class sc-* simulates, each
	// generated from its own seed. The stream trace's IPC moves by up
	// to 30% with the seed (its arrays' start offsets decide DRAM row
	// conflicts), so one instance per class would make ipc and sim_ips
	// depend on the seed more than on the code under test.
	instances int
	// mcWarmup and mcMeasured are per core in the 4-core mix, which runs
	// the first instance of each class. The mix runs until its slowest
	// core (mcf) retires mcMeasured, so the others retire several times
	// as many.
	mcWarmup, mcMeasured int
	// setups is how often set-up repeats; setup_s is the median.
	setups int
}

var benchSize = size{warmup: 50_000, measured: 100_000, instances: 4, mcWarmup: 5_000, mcMeasured: 20_000, setups: 9}

// wallSampleEvery is the traced run's tick-sampling cadence: every Nth
// Tick of each rank is wall-timed (sc-* only).
const wallSampleEvery = 32

func singleConfig(secure bool, warmup, measured int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs, cfg.MaxInstrs = warmup, measured
	if secure {
		cfg.Secure, cfg.SUF, cfg.Prefetcher, cfg.Mode = true, true, "berti", sim.ModeTimelySecure
	}
	return cfg
}

// runner executes one workload's operations. One operation is one
// simulation: a single trace on sc-*, the whole 4-core mix on mc-*; a
// round is one operation per trace (sc-*) or one mix (mc-*). Trace
// instance j of every class is generated from workload seed
// seed*instances+j, so different benchmark seeds never share a trace.
type runner struct {
	w      workloadSpec
	seed   int64
	size   size
	traces []*trace.Trace
	// exportDir receives mc-observed's artifacts; it is created under
	// the process's temporary directory and removed by close.
	exportDir string
}

func newRunner(w workloadSpec, seed int64, sz size) (*runner, error) {
	r := &runner{w: w, seed: seed, size: sz}
	if w.observed {
		dir, err := os.MkdirTemp("", "perfbench-export-")
		if err != nil {
			return nil, fmt.Errorf("export dir: %w", err)
		}
		r.exportDir = dir
	}
	return r, nil
}

func (r *runner) close() {
	if r.exportDir != "" {
		os.RemoveAll(r.exportDir)
	}
}

func (r *runner) singleConfig() sim.Config {
	return singleConfig(r.w.secure, r.size.warmup, r.size.measured)
}

func (r *runner) multicoreConfig() multicore.Config {
	cfg := multicore.DefaultConfig()
	cfg.Single = singleConfig(r.w.secure, r.size.mcWarmup, r.size.mcMeasured)
	cfg.Seed = uint64(r.seed)
	return cfg
}

// setup generates the traces and constructs the system once, the way a
// run call would, and returns the time it took. The trace cache is
// cleared first so every repetition generates; the bfs graph, which
// the workload package memoizes separately for the process, is built
// only in the first.
func (r *runner) setup(rec *recorder, parent int) (time.Duration, error) {
	start := time.Now()
	workload.Evict()
	instances := r.size.instances
	if r.w.multicore {
		instances = 1
	}
	var traces []*trace.Trace
	for j := 0; j < instances; j++ {
		for _, name := range traceNames {
			sp := rec.begin("workload.gen", parent)
			t, err := workload.Get(name, workload.Params{
				Instrs: r.size.warmup + r.size.measured,
				Seed:   r.seed*int64(r.size.instances) + int64(j),
			})
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			traces = append(traces, t)
		}
	}
	sp := rec.begin("sim.build", parent)
	err := r.build(traces)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	r.traces = traces
	return time.Since(start), nil
}

// build constructs the systems the run calls will simulate. The run
// calls (sim.RunProbed, multicore.RunProbed) construct their own, so
// set-up times a separate construction.
func (r *runner) build(traces []*trace.Trace) error {
	if r.w.multicore {
		cfg := r.multicoreConfig()
		mix := make([]trace.Source, len(traces))
		for i, t := range traces {
			mix[i] = trace.NewSource(t)
		}
		_, err := sim.BuildSharded(cfg.Single, cfg.Cores, mix, cfg.LinkLatency, cfg.Seed)
		return err
	}
	cfg := r.singleConfig()
	for _, t := range traces {
		if _, err := sim.NewMachine(cfg, trace.NewSource(t)); err != nil {
			return err
		}
	}
	return nil
}

// opResult is one operation's outcome.
type opResult struct {
	err    error
	digest uint64
	// instrs are the measured-phase instructions the Results report,
	// summed over cores (mc-* includes early finishers' replay).
	instrs uint64
	// ipc is the trace's IPC (sc-*) or the sum of per-core IPC (mc-*).
	ipc float64
	// results are the simulation's per-core Results (one on sc-*).
	results []*sim.Result
}

// roundTrace is what a traced round measures beside its spans.
type roundTrace struct {
	profile           *observatory.Profile
	allocs, allocByte uint64
	gcPause           time.Duration
	cpu               time.Duration // mc-*: process CPU time in the run call
}

// round runs one round. rec == nil runs it untraced; otherwise every
// layer call is recorded under parent and rt collects the counters.
// plain forces the unobserved mix (mc-observed's twin of mc-mix).
func (r *runner) round(rec *recorder, parent int, rt *roundTrace, plain bool) []opResult {
	if r.w.multicore {
		return []opResult{r.runMix(rec, parent, rt, plain)}
	}
	out := make([]opResult, len(r.traces))
	for i, t := range r.traces {
		out[i] = r.runSingle(t, rec, parent, rt)
	}
	return out
}

func (r *runner) runSingle(t *trace.Trace, rec *recorder, parent int, rt *roundTrace) opResult {
	src := trace.NewSource(t)
	var p sim.Probes
	var ts *timedSource
	if rec != nil {
		ts = &timedSource{BatchSource: src.(trace.BatchSource)}
		src = ts
		p.Profile = &observatory.Profile{WallSampleEvery: wallSampleEvery}
	}
	var ms0, ms1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	sp := rec.begin("sim.run", parent)
	res, err := sim.RunProbed(r.singleConfig(), src, p)
	rec.end(sp)
	if rec != nil {
		runtime.ReadMemStats(&ms1)
		rt.addMem(&ms0, &ms1)
		rt.addProfile(p.Profile)
		// The core decodes inside its Tick, so trace reads nest under the
		// core's sampled tick time.
		core := rec.addRankSpans(p.Profile, sp)
		rec.add("trace.read", core, ts.elapsed(rec.calib), ts.batches, false)
	}
	if err != nil {
		return opResult{err: err}
	}
	d, err := digest(res)
	return opResult{err: err, digest: d, instrs: res.Instructions, ipc: res.IPC, results: []*sim.Result{res}}
}

// observedProbes arms the observers a campaign attaches to a 4-core
// run: the interference observatory, one interval sampler per core, a
// shared-domain lifecycle tracer and an attribution profile.
func observedProbes(cores int) (multicore.Probes, []*probe.IntervalSampler, *probe.Tracer) {
	samplers := make([]*probe.IntervalSampler, cores)
	windows := make([]probe.WindowObserver, cores)
	for i := range samplers {
		samplers[i] = probe.NewIntervalSampler(64)
		windows[i] = samplers[i]
	}
	tracer := probe.NewTracer(32, 1<<13)
	return multicore.Probes{
		Interference:   true,
		Windows:        windows,
		SharedObserver: tracer,
		Profile:        observatory.NewProfile(),
	}, samplers, tracer
}

func (r *runner) runMix(rec *recorder, parent int, rt *roundTrace, plain bool) opResult {
	cfg := r.multicoreConfig()
	mix := make([]trace.Source, len(r.traces))
	var timed []*timedSource
	for i, t := range r.traces {
		mix[i] = trace.NewSource(t)
		if rec != nil {
			ts := &timedSource{BatchSource: mix[i].(trace.BatchSource)}
			timed = append(timed, ts)
			mix[i] = ts
		}
	}
	var p multicore.Probes
	var samplers []*probe.IntervalSampler
	var tracer *probe.Tracer
	if r.w.observed && !plain {
		p, samplers, tracer = observedProbes(cfg.Cores)
	} else if rec != nil {
		p.Profile = observatory.NewProfile()
	}
	var ms0, ms1 runtime.MemStats
	var cpu0 time.Duration
	if rec != nil {
		runtime.ReadMemStats(&ms0)
		cpu0 = processCPU()
	}
	sp := rec.begin("multicore.run", parent)
	res, err := multicore.RunProbed(cfg, mix, p)
	rec.end(sp)
	if rec != nil {
		cpu := processCPU() - cpu0
		runtime.ReadMemStats(&ms1)
		rt.addMem(&ms0, &ms1)
		rt.addProfile(p.Profile)
		rt.cpu += cpu
		// Cores decode on the engine's worker goroutines, so the summed
		// read time is thread time; its share of the run span's wall time
		// is that sum over the run's parallelism.
		var read time.Duration
		var batches uint64
		for _, ts := range timed {
			read += ts.elapsed(rec.calib)
			batches += ts.batches
		}
		wall := time.Duration(rec.spans[sp].DurNs)
		if cpu > wall {
			read = time.Duration(float64(read) * float64(wall) / float64(cpu))
		}
		rec.add("trace.read", sp, read, batches, true)
	}
	if err != nil {
		return opResult{err: err}
	}
	if samplers != nil {
		if err := r.export(rec, parent, res, p.Profile, samplers, tracer); err != nil {
			return opResult{err: err}
		}
	}
	// The digest covers the architectural outcome only: the observers'
	// snapshot must not make mc-observed differ from mc-mix.
	res.Interference = nil
	out := opResult{results: res.PerCore}
	for _, rc := range res.PerCore {
		out.instrs += rc.Instructions
		out.ipc += rc.IPC
	}
	out.digest, out.err = digest(res)
	return out
}

// export writes every artifact mc-observed's observers produced, each
// through its package's Write function, one file per call.
func (r *runner) export(rec *recorder, parent int, res *multicore.Result, prof *observatory.Profile,
	samplers []*probe.IntervalSampler, tracer *probe.Tracer) error {
	label := fmt.Sprintf("%s-seed%d", r.w.name, r.seed)
	type artifact struct {
		layer, file string
		write       func(io.Writer) error
	}
	var arts []artifact
	for i, s := range samplers {
		s, name := s, r.traces[i].Name
		base := fmt.Sprintf("core%d", i)
		arts = append(arts,
			artifact{"probe.export", base + ".series.json", func(w io.Writer) error { return s.WriteJSON(w, label, name) }},
			artifact{"probe.export", base + ".series.csv", s.WriteCSV})
	}
	snap := res.Interference
	arts = append(arts,
		artifact{"probe.export", "shared.trace.json", func(w io.Writer) error { return tracer.WriteChromeTrace(w, label) }},
		artifact{"observatory.export", "simprofile.json", prof.WriteJSON},
		artifact{"observatory.export", "simprofile.csv", prof.WriteCSV},
		artifact{"observatory.export", "simprofile.prom", prof.WritePrometheus},
		artifact{"observatory.export", "simprofile.trace.json", func(w io.Writer) error { return prof.WriteChromeTrace(w, label) }},
		artifact{"interference.export", "interference.json", snap.WriteJSON},
		artifact{"interference.export", "interference.csv", snap.WriteCSV},
		artifact{"interference.export", "interference.prom", snap.WritePrometheus},
		artifact{"interference.export", "interference.trace.json", snap.WriteChromeTrace})
	for _, a := range arts {
		sp := rec.begin(a.layer, parent)
		err := writeFile(filepath.Join(r.exportDir, a.file), a.write)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// digest fingerprints a Result: observatory.HashBytes of its JSON, as
// cmd/bench does.
func digest(v any) (uint64, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return observatory.HashBytes(raw), nil
}

func (rt *roundTrace) addMem(a, b *runtime.MemStats) {
	rt.allocs += b.Mallocs - a.Mallocs
	rt.allocByte += b.TotalAlloc - a.TotalAlloc
	rt.gcPause += time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

func (rt *roundTrace) addProfile(p *observatory.Profile) {
	if rt.profile == nil {
		rt.profile = observatory.NewProfile()
	}
	rt.profile.Merge(p)
}

// rusage reads the process's resource usage. getrusage(RUSAGE_SELF)
// fails only for an invalid pointer, which a bug alone can produce.
func rusage() *syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return &ru
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) * 1024 / 1e6 // Linux reports KiB
}
