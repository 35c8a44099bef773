// Package experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md for the experiment index). Each
// Fig* / Table* method produces a text table with the same series the
// paper plots; cmd/experiments prints them and bench_test.go wraps them
// in benchmarks.
//
// Results are memoized by (trace, configuration) and shared across
// figures — Fig. 1, 3, 4, 13 and 14 reuse the same runs — and the
// runner fans simulations out across CPUs.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"secpref/internal/export"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// Prefetchers lists the evaluated engines in the paper's plot order.
var Prefetchers = []string{"ip-stride", "ipcp", "bingo", "spp-ppf", "berti"}

// Options size the experiment campaign.
type Options struct {
	// Instrs is the measured instruction budget per run; Warmup runs
	// first (the paper uses 200M/50M; defaults here are laptop-scale).
	Instrs int
	Warmup int
	// Traces restricts the workload set (default: all 65).
	Traces []string
	// Mixes is the number of random 4-core mixes for Fig. 15.
	Mixes int
	// Seed drives workload generation and mix selection.
	Seed int64
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	Parallelism int
	// TimeseriesDir, when non-empty, attaches an interval sampler and a
	// request-lifecycle tracer to every single-core run and exports
	// <trace>__<label>.series.json, .series.csv, and .trace.json into the
	// directory. Attached probes never change the simulated results.
	TimeseriesDir string
	// Campaign, when non-nil, receives live run/instruction counters as
	// the campaign progresses (cmd/experiments wires it to -http).
	Campaign *probe.Campaign
	// Profile, when non-nil, aggregates engine-attribution counters
	// (internal/observatory) across every run of the campaign. Like the
	// other probes, attaching it never changes simulated results.
	Profile *observatory.Aggregate
}

// DefaultOptions returns the standard campaign size.
func DefaultOptions() Options {
	return Options{Instrs: 100_000, Warmup: 20_000, Mixes: 24, Seed: 1}
}

// QuickOptions returns a fast smoke-scale campaign.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Instrs = 20_000
	o.Warmup = 4_000
	o.Mixes = 6
	o.Traces = []string{
		"605.mcf-1554B", "603.bwa-2931B", "619.lbm-2676B", "602.gcc-1850B",
		"654.roms-1007B", "bfs-3B", "sssp-5B", "cc-14B", "pr-3B", "bc-0B",
	}
	return o
}

// Runner executes and memoizes simulations.
type Runner struct {
	opts Options

	mu      sync.Mutex
	results map[resultKey]*entry
	sem     chan struct{}
}

type resultKey struct {
	trace string
	label string
}

type entry struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// NewRunner builds a runner; zero-valued option fields take defaults.
func NewRunner(opts Options) *Runner {
	def := DefaultOptions()
	if opts.Instrs == 0 {
		opts.Instrs = def.Instrs
	}
	if opts.Warmup == 0 {
		opts.Warmup = def.Warmup
	}
	if opts.Mixes == 0 {
		opts.Mixes = def.Mixes
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	if len(opts.Traces) == 0 {
		opts.Traces = workload.Names()
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opts:    opts,
		results: make(map[resultKey]*entry),
		sem:     make(chan struct{}, opts.Parallelism),
	}
}

// Options returns the effective options.
func (r *Runner) Options() Options { return r.opts }

// cfgVariant describes one evaluated system in figure-legend terms.
type cfgVariant struct {
	label      string
	prefetcher string
	mode       sim.Mode
	secure     bool
	suf        bool
	classify   bool
}

func (v cfgVariant) config(opts Options) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = opts.Warmup
	cfg.MaxInstrs = opts.Instrs
	cfg.Prefetcher = v.prefetcher
	cfg.Mode = v.mode
	cfg.Secure = v.secure
	cfg.SUF = v.suf
	cfg.Classify = v.classify
	// The paper's TS monitoring intervals (512/4096 misses) assume
	// 200M-instruction runs; scale the L2 prefetchers' interval down so
	// the adaptation can engage at harness scale (L1D's 512 already
	// completes many intervals; see sim.Config.LatenessInterval).
	if opts.Instrs < 10_000_000 && (v.prefetcher == "bingo" || v.prefetcher == "spp-ppf") {
		cfg.LatenessInterval = 512
	}
	return cfg
}

// The recurring variants of the paper's legends.
func baseNonSecure() cfgVariant {
	return cfgVariant{label: "nopref/non-secure", prefetcher: "none"}
}

func baseSecure() cfgVariant {
	return cfgVariant{label: "nopref/secure", prefetcher: "none", secure: true}
}

func baseSecureSUF() cfgVariant {
	return cfgVariant{label: "nopref/secure+SUF", prefetcher: "none", secure: true, suf: true}
}

func onAccessNonSecure(pf string) cfgVariant {
	return cfgVariant{label: pf + "/on-access/non-secure", prefetcher: pf, mode: sim.ModeOnAccess}
}

func onAccessSecure(pf string) cfgVariant {
	return cfgVariant{label: pf + "/on-access/secure", prefetcher: pf, mode: sim.ModeOnAccess, secure: true}
}

func onCommitSecure(pf string) cfgVariant {
	return cfgVariant{label: pf + "/on-commit/secure", prefetcher: pf, mode: sim.ModeOnCommit, secure: true}
}

func onCommitSecureSUF(pf string) cfgVariant {
	return cfgVariant{label: pf + "/on-commit/secure+SUF", prefetcher: pf, mode: sim.ModeOnCommit, secure: true, suf: true}
}

func timelySecure(pf string) cfgVariant {
	return cfgVariant{label: pf + "/TS/secure", prefetcher: pf, mode: sim.ModeTimelySecure, secure: true}
}

func timelySecureSUF(pf string) cfgVariant {
	return cfgVariant{label: pf + "/TS/secure+SUF", prefetcher: pf, mode: sim.ModeTimelySecure, secure: true, suf: true}
}

func classified(v cfgVariant) cfgVariant {
	v.classify = true
	v.label += "+classify"
	return v
}

// Lifecycle-tracer sizing for campaign runs: sample every 32nd load and
// keep the most recent 8Ki events per run. Campaign traces are meant for
// spot inspection in Perfetto, not exhaustive capture; the ring bounds
// memory across the fan-out.
const (
	traceSampleEvery = 32
	traceRingCap     = 1 << 13
)

// result runs (or returns the memoized) simulation of variant v on the
// named trace.
func (r *Runner) result(traceName string, v cfgVariant) (*sim.Result, error) {
	key := resultKey{traceName, v.label}
	r.mu.Lock()
	e, ok := r.results[key]
	if !ok {
		e = &entry{}
		r.results[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		tr, err := workload.Get(traceName, workload.Params{Instrs: r.opts.Instrs + r.opts.Warmup, Seed: r.opts.Seed})
		if err != nil {
			e.err = err
			return
		}
		if c := r.opts.Campaign; c != nil {
			c.RunStarted()
			defer func() {
				if e.err != nil {
					c.RunFailed()
				} else {
					c.RunDone(e.res.Instructions, e.res.Cycles)
				}
			}()
		}
		src := trace.NewSource(tr)
		var probes sim.Probes
		var prof *observatory.Profile
		if r.opts.Profile != nil {
			prof = observatory.NewProfile()
			probes.Profile = prof
		}
		if r.opts.TimeseriesDir == "" {
			e.res, e.err = sim.RunProbed(v.config(r.opts), src, probes)
		} else {
			sampler := probe.NewIntervalSampler(r.opts.Instrs/int(sim.DefaultWindowInstrs) + 2)
			tracer := probe.NewTracer(traceSampleEvery, traceRingCap)
			probes.Observer = tracer
			probes.Window = sampler
			e.res, e.err = sim.RunProbed(v.config(r.opts), src, probes)
			if e.err == nil {
				e.err = export.WriteFiles(r.opts.TimeseriesDir, probe.RunFiles(traceName, v.label, sampler, tracer)...)
			}
		}
		if e.err == nil && prof != nil {
			r.opts.Profile.Add(prof)
		}
	})
	return e.res, e.err
}

// forEachTrace runs fn for every trace in parallel and joins their
// errors in trace order.
func (r *Runner) forEachTrace(fn func(name string) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.opts.Traces))
	for i, name := range r.opts.Traces {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = fn(name)
		}(i, name)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// speedups collects per-trace speedups of v over the non-secure
// no-prefetch baseline.
func (r *Runner) speedups(v cfgVariant) (map[string]float64, error) {
	out := make(map[string]float64, len(r.opts.Traces))
	var mu sync.Mutex
	err := r.forEachTrace(func(name string) error {
		base, err := r.result(name, baseNonSecure())
		if err != nil {
			return err
		}
		res, err := r.result(name, v)
		if err != nil {
			return err
		}
		mu.Lock()
		out[name] = res.Speedup(base)
		mu.Unlock()
		return nil
	})
	return out, err
}

// geomean returns the geometric mean of the map's values (the paper's
// averaging rule for normalized numbers).
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	n := 0
	for _, v := range m {
		if v > 0 {
			s += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// mean returns the arithmetic mean (the rule for raw metrics).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// collect gathers one metric over all traces for a variant and averages
// arithmetically.
func (r *Runner) collect(v cfgVariant, metric func(*sim.Result) float64) (float64, error) {
	var mu sync.Mutex
	var vals []float64
	err := r.forEachTrace(func(name string) error {
		res, err := r.result(name, v)
		if err != nil {
			return err
		}
		mu.Lock()
		vals = append(vals, metric(res))
		mu.Unlock()
		return nil
	})
	return mean(vals), err
}

// sortedTraces returns the runner's traces in registry order.
func (r *Runner) sortedTraces(suite string) []string {
	inSuite := map[string]bool{}
	for _, g := range workload.Suite(suite) {
		inSuite[g.Name] = true
	}
	var out []string
	for _, name := range r.opts.Traces {
		if inSuite[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
