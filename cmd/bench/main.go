// Command bench holds the six wall-time bounds that no go test and no
// perfbench workload holds yet. It times two scenarios, each flavor
// best of three runs, interleaved so that host drift hits every flavor
// alike:
//
//   - single-core: the full secure system (GhostMinion + TSB + SUF +
//     Berti) over 50k instructions of 602.gcc-1850B, plain and with a
//     campaign's probes attached;
//   - 4-core: four copies of 605.mcf-1554B, 2k warmup + 10k measured
//     instructions per core, same secure system, on the lockstep
//     reference, the barrier-parallel engine, and the parallel engine
//     with a campaign's observers attached.
//
// It fails when a time is more than 1.5 times its reference below,
// when the parallel engine beats lockstep by less than 1.3 times, or
// when the observers slow the parallel engine by more than 25%. The
// same scenarios' allocation budgets and flat tick profile are go
// tests in budget_test.go; their output digests, plain, probed and
// observed, are pinned in internal/sim and internal/multicore.
//
// Usage:
//
//	go run ./cmd/bench
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"secpref/internal/multicore"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// The reference times are the best-of-3 times the ev7-flat-profile
// engine recorded on 2026-08-07. They measure that day's host as much
// as the code.
const (
	refDate     = "2026-08-07"
	refPlain    = 20_693_004 * time.Nanosecond
	refProbed   = 21_415_459 * time.Nanosecond
	refParallel = 58_882_298 * time.Nanosecond
	refObserved = 66_757_991 * time.Nanosecond

	slowdownLimit   = 1.5  // time / reference time
	minSpeedup      = 1.3  // lockstep time / parallel time
	maxObserverCost = 1.25 // observed time / parallel time
	runs            = 3
)

// flavor is one timed configuration: run performs one simulation and
// returns its wall time.
type flavor struct {
	name string
	run  func() (time.Duration, error)
	best time.Duration
}

// timeBest runs every flavor runs+1 times in rotation and keeps each
// one's best time. The first rotation warms the heap and the caches
// and is not counted.
func timeBest(flavors ...*flavor) error {
	for i := 0; i <= runs; i++ {
		for _, f := range flavors {
			d, err := f.run()
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			if i > 0 && (f.best == 0 || d < f.best) {
				f.best = d
			}
		}
	}
	return nil
}

func singleCore(probes func() sim.Probes) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		tr, err := workload.Get("602.gcc-1850B", workload.Params{Instrs: 50_000, Seed: 1})
		if err != nil {
			return 0, err
		}
		cfg := sim.DefaultConfig()
		cfg.WarmupInstrs = 0
		cfg.MaxInstrs = 50_000
		cfg.Secure = true
		cfg.SUF = true
		cfg.Prefetcher = "berti"
		cfg.Mode = sim.ModeTimelySecure
		p := probes()
		runtime.GC()
		start := time.Now()
		_, err = sim.RunProbed(cfg, trace.NewSource(tr), p)
		return time.Since(start), err
	}
}

func fourCore(probes func() multicore.Probes) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 12_000, Seed: 1})
		if err != nil {
			return 0, err
		}
		cfg := multicore.DefaultConfig()
		cfg.Single.WarmupInstrs = 2000
		cfg.Single.MaxInstrs = 10_000
		cfg.Single.Secure = true
		cfg.Single.SUF = true
		cfg.Single.Prefetcher = "berti"
		cfg.Single.Mode = sim.ModeTimelySecure
		mix := make([]trace.Source, cfg.Cores)
		for i := range mix {
			mix[i] = trace.NewSource(tr)
		}
		p := probes()
		runtime.GC()
		start := time.Now()
		_, err = multicore.RunProbed(cfg, mix, p)
		return time.Since(start), err
	}
}

func main() {
	plain := &flavor{name: "single-core plain", run: singleCore(func() sim.Probes { return sim.Probes{} })}
	probed := &flavor{name: "single-core probed", run: singleCore(func() sim.Probes {
		// A campaign's attachments: every 32nd load traced into an 8Ki
		// ring, one window sample per 1k instructions.
		return sim.Probes{Observer: probe.NewTracer(32, 1<<13), Window: probe.NewIntervalSampler(52)}
	})}
	lockstep := &flavor{name: "4-core lockstep", run: fourCore(func() multicore.Probes {
		return multicore.Probes{ReferenceEngine: true}
	})}
	parallel := &flavor{name: "4-core parallel", run: fourCore(func() multicore.Probes { return multicore.Probes{} })}
	observed := &flavor{name: "4-core observed", run: fourCore(func() multicore.Probes {
		// The interference observatory, one interval sampler per core
		// and a shared-domain lifecycle tracer.
		windows := make([]probe.WindowObserver, 4)
		for i := range windows {
			windows[i] = probe.NewIntervalSampler(16)
		}
		return multicore.Probes{
			Interference:   true,
			Windows:        windows,
			WindowInstrs:   1000,
			SharedObserver: probe.NewTracer(32, 1<<13),
		}
	})}
	for _, scenario := range [][]*flavor{{plain, probed}, {lockstep, parallel, observed}} {
		if err := timeBest(scenario...); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	failed := 0
	check := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf(verdict+"  "+format+"\n", args...)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, g := range []struct {
		f   *flavor
		ref time.Duration
	}{{plain, refPlain}, {probed, refProbed}, {parallel, refParallel}, {observed, refObserved}} {
		limit := slowdownLimit * ms(g.ref)
		check(ms(g.f.best) <= limit, "%-18s %6.2f ms/op, limit %6.2f (%.1f x %.2f, recorded %s)",
			g.f.name, ms(g.f.best), limit, slowdownLimit, ms(g.ref), refDate)
	}
	speedup := float64(lockstep.best) / float64(parallel.best)
	check(speedup >= minSpeedup, "parallel engine %.2fx faster than lockstep (%.2f ms/op), floor %.2fx",
		speedup, ms(lockstep.best), minSpeedup)
	cost := float64(observed.best) / float64(parallel.best)
	check(cost <= maxObserverCost, "observed / parallel time %.2f, ceiling %.2f", cost, maxObserverCost)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of 6 bounds failed\n", failed)
		os.Exit(1)
	}
}
