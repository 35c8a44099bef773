// Package experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md for the experiment index). Each
// Fig* / Table* method produces a text table with the same series the
// paper plots; cmd/experiments prints them and bench_test.go wraps them
// in benchmarks.
//
// Every simulation the runner starts goes through one memo, keyed by
// the run's full input: its kind (single-core, audited, SMT, multicore,
// consolidation or engine comparison), its trace names and its
// sim.Config. Two variants that build the same system therefore share
// one run whatever their labels, and Fig. 1, 3, 4, 13, 14 and the
// ablations reuse each other's runs. The runner fans simulations out
// across CPUs, at most Options.Parallelism at a time.
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
	// Parallelism bounds concurrent simulations, engine comparisons
	// and attack-harness rows (default: GOMAXPROCS).
	Parallelism int
	// TimeseriesDir, when non-empty, attaches an interval sampler and a
	// request-lifecycle tracer to every single-core run but the
	// leakage audit's (whose observer slot holds the auditor) and
	// exports <trace>__<label>.series.json, .series.csv, and
	// .trace.json into the directory; consolidation runs export their
	// interference snapshot there. Attached probes never change the
	// simulated results.
	TimeseriesDir string
	// Campaign, when non-nil, receives live run/instruction counters as
	// the campaign progresses (cmd/experiments wires it to -http).
	Campaign *probe.Campaign
	// Profile, when non-nil, aggregates engine-attribution counters
	// (internal/observatory) across every single-core and multicore run
	// of the campaign. Like the other probes, attaching it never
	// changes simulated results.
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

	mu   sync.Mutex
	runs map[runKey]*entry
	sem  chan struct{}
}

// runKey is a run's full input: its kind (what the run returns and
// which probes it carries), its trace names joined by "+" (one per
// core or SMT thread) and its per-core configuration. sim.Config is a
// comparable struct; the runner's seed and trace length complete the
// input and are fixed per runner.
type runKey struct {
	kind   string
	traces string
	cfg    sim.Config
}

type entry struct {
	once sync.Once
	val  any
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
		opts: opts,
		runs: make(map[runKey]*entry),
		sem:  make(chan struct{}, opts.Parallelism),
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
	// edit, when set, adjusts the built configuration (see with).
	edit func(*sim.Config)
}

func (v cfgVariant) config(opts Options) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = opts.Warmup
	cfg.MaxInstrs = opts.Instrs
	cfg.Prefetcher = v.prefetcher
	cfg.Mode = v.mode
	cfg.Secure = v.secure
	cfg.SUF = v.suf
	// The paper's TS monitoring intervals (512/4096 misses) assume
	// 200M-instruction runs; scale the L2 prefetchers' interval down so
	// the adaptation can engage at harness scale (L1D's 512 already
	// completes many intervals; see sim.Config.LatenessInterval).
	if opts.Instrs < 10_000_000 && (v.prefetcher == "bingo" || v.prefetcher == "spp-ppf") {
		cfg.LatenessInterval = 512
	}
	if v.edit != nil {
		v.edit(&cfg)
	}
	return cfg
}

// with returns v with edit applied to its configuration after v's own
// edit, labeled v's label + "+" + suffix. Labels name exported files;
// the memo keys on the configuration, so an edit that changes nothing
// reuses v's runs.
func (v cfgVariant) with(suffix string, edit func(*sim.Config)) cfgVariant {
	prev := v.edit
	v.label += "+" + suffix
	v.edit = func(c *sim.Config) {
		if prev != nil {
			prev(c)
		}
		edit(c)
	}
	return v
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
	return v.with("classify", func(c *sim.Config) { c.Classify = true })
}

// Lifecycle-tracer sizing for campaign runs: sample every 32nd load and
// keep the most recent 8Ki events per run. Campaign traces are meant for
// spot inspection in Perfetto, not exhaustive capture; the ring bounds
// memory across the fan-out.
const (
	traceSampleEvery = 32
	traceRingCap     = 1 << 13
)

// memo runs, or returns the memoized outcome of, the run under key. It
// is the one place the runner starts a simulation: the run holds one
// -p slot while it executes, is counted in the campaign, and its
// profile (nil unless Options.Profile is set; runs that take no probes
// leave it empty) is folded into the campaign aggregate. run returns
// its value with the retired instructions and simulated cycles the
// campaign counts. A run must never call back into memo: it would wait
// for a second slot while holding one.
func memo[T any](r *Runner, key runKey, run func(prof *observatory.Profile) (T, uint64, uint64, error)) (T, error) {
	r.mu.Lock()
	e, ok := r.runs[key]
	if !ok {
		e = &entry{}
		r.runs[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		r.bounded(func() {
			var prof *observatory.Profile
			if r.opts.Profile != nil {
				prof = observatory.NewProfile()
			}
			c := r.opts.Campaign
			if c != nil {
				c.RunStarted()
			}
			val, instrs, cycles, err := run(prof)
			e.val, e.err = val, err
			switch {
			case err != nil && c != nil:
				c.RunFailed()
			case c != nil:
				c.RunDone(instrs, cycles)
			}
			if err == nil && prof != nil {
				r.opts.Profile.Add(prof)
			}
		})
	})
	val, _ := e.val.(T)
	return val, e.err
}

// bounded runs fn holding one of the runner's -p slots.
func (r *Runner) bounded(fn func()) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	fn()
}

// sources returns fresh sources of the named traces at the runner's
// length and seed.
func (r *Runner) sources(names ...string) ([]trace.Source, error) {
	srcs := make([]trace.Source, len(names))
	for i, name := range names {
		tr, err := workload.Get(name, workload.Params{Instrs: r.opts.Instrs + r.opts.Warmup, Seed: r.opts.Seed})
		if err != nil {
			return nil, err
		}
		srcs[i] = trace.NewSource(tr)
	}
	return srcs, nil
}

// sharedConfig is v's configuration for one core of a machine that
// runs several traces (an SMT thread or a multicore core): half the
// runner's budgets, so a campaign of many mixes stays tractable.
func (r *Runner) sharedConfig(v cfgVariant) sim.Config {
	cfg := v.config(r.opts)
	cfg.MaxInstrs = r.opts.Instrs / 2
	cfg.WarmupInstrs = r.opts.Warmup / 2
	return cfg
}

// result runs (or returns the memoized) simulation of variant v on the
// named trace, exporting its time series and lifecycle trace under
// v's label when Options.TimeseriesDir is set.
func (r *Runner) result(traceName string, v cfgVariant) (*sim.Result, error) {
	cfg := v.config(r.opts)
	return memo(r, runKey{"sim", traceName, cfg}, func(prof *observatory.Profile) (*sim.Result, uint64, uint64, error) {
		srcs, err := r.sources(traceName)
		if err != nil {
			return nil, 0, 0, err
		}
		probes := sim.Probes{Profile: prof}
		var sampler *probe.IntervalSampler
		var tracer *probe.Tracer
		if r.opts.TimeseriesDir != "" {
			sampler = probe.NewIntervalSampler(r.opts.Instrs/int(sim.DefaultWindowInstrs) + 2)
			tracer = probe.NewTracer(traceSampleEvery, traceRingCap)
			probes.Observer, probes.Window = tracer, sampler
		}
		res, err := sim.RunProbed(cfg, srcs[0], probes)
		if err == nil && tracer != nil {
			err = export.WriteFiles(r.opts.TimeseriesDir, probe.RunFiles(traceName, v.label, sampler, tracer)...)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		return res, res.Instructions, res.Cycles, nil
	})
}

// parallel runs fn(0..n-1) concurrently and joins their errors in
// index order. The memo bounds how many simulations run at once.
func parallel(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// perTrace is the one per-trace fold: it evaluates fn on every trace
// of the runner in parallel and returns the values by trace.
func perTrace[T any](r *Runner, fn func(trace string) (T, error)) (map[string]T, error) {
	vals := make([]T, len(r.opts.Traces))
	err := parallel(len(vals), func(i int) (err error) {
		vals[i], err = fn(r.opts.Traces[i])
		return err
	})
	out := make(map[string]T, len(vals))
	for i, name := range r.opts.Traces {
		out[name] = vals[i]
	}
	return out, err
}

// metric returns the arithmetic mean of f over every trace's run of v
// (the averaging rule for raw metrics).
func (r *Runner) metric(v cfgVariant, f func(*sim.Result) float64) (float64, error) {
	m, err := perTrace(r, func(name string) (float64, error) {
		res, err := r.result(name, v)
		if err != nil {
			return 0, err
		}
		return f(res), nil
	})
	return mean(m), err
}

// speedupsOver returns each trace's speedup of v over base.
func (r *Runner) speedupsOver(base, v cfgVariant) (map[string]float64, error) {
	return perTrace(r, func(name string) (float64, error) {
		b, err := r.result(name, base)
		if err != nil {
			return 0, err
		}
		res, err := r.result(name, v)
		if err != nil {
			return 0, err
		}
		return res.Speedup(b), nil
	})
}

// speedups returns each trace's speedup of v over the non-secure
// no-prefetch baseline.
func (r *Runner) speedups(v cfgVariant) (map[string]float64, error) {
	return r.speedupsOver(baseNonSecure(), v)
}

// inOrder returns m's values in sorted-key order, so that sums over a
// map do not depend on its iteration order.
func inOrder(m map[string]float64) []float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return vals
}

// geomean returns the geometric mean of the map's positive values (the
// paper's averaging rule for normalized numbers).
func geomean(m map[string]float64) float64 {
	s := 0.0
	n := 0
	for _, v := range inOrder(m) {
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

// mean returns the arithmetic mean of the map's values (the rule for
// raw metrics).
func mean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range inOrder(m) {
		s += v
	}
	return s / float64(len(m))
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
