package experiments

import (
	"errors"
	"fmt"
	"strings"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/sim"
	"secpref/internal/trace"
)

// engineGateVariants are the configurations both engine gates exercise:
// the full secure stack (GM + SUF + Berti/TSB — every digested
// component live) and a non-secure on-access system (the other
// training/fill wiring).
var engineGateVariants = []cfgVariant{timelySecureSUF("berti"), onAccessNonSecure("berti")}

// compare runs (or returns the memoized) engine comparison cmp of one
// gate on the named traces, handing it a function that returns fresh
// sources of them on every call. A comparison returns no result, so
// the campaign counts it with no instructions or cycles.
func (r *Runner) compare(kind string, names []string, cfg sim.Config, cmp func(sources func() ([]trace.Source, error)) error) error {
	_, err := memo(r, runKey{kind, strings.Join(names, "+"), cfg}, func(*observatory.Profile) (struct{}, uint64, uint64, error) {
		return struct{}{}, 0, 0, cmp(func() ([]trace.Source, error) { return r.sources(names...) })
	})
	return err
}

// DigestEquivalenceGate runs every (variant, trace) pair of the
// campaign on the calendar-queue event engine and on the lockstep
// reference (sim.CompareEngines). It fails unless the architectural
// state agrees at every digest interval along the way and the results
// are bit-identical; a failure names the exact (cycle, component) at
// which the engines first disagree.
func (r *Runner) DigestEquivalenceGate() error {
	var errs []error
	for _, v := range engineGateVariants {
		cfg := v.config(r.opts)
		errs = append(errs, parallel(len(r.opts.Traces), func(i int) error {
			name := r.opts.Traces[i]
			err := r.compare("digest-gate", []string{name}, cfg, func(sources func() ([]trace.Source, error)) error {
				return sim.CompareEngines(cfg, sources, 0)
			})
			if err != nil {
				return fmt.Errorf("digest gate %s/%s: %w", v.label, name, err)
			}
			return nil
		}))
	}
	return errors.Join(errs...)
}

// MulticoreEquivalenceGate is the multi-core twin of
// DigestEquivalenceGate: representative 4-core mixes on the serial
// lockstep reference, the barrier-parallel engine at the safety bound
// and the parallel engine at barrier interval 1 (multicore.CompareEngines).
// Both parallel runs must reproduce the reference's digest stream, stop
// cycle, final digests and per-core results, which the weighted-speedup
// table is computed from.
func (r *Runner) MulticoreEquivalenceGate() error {
	mixes := r.randomMixes()
	if len(mixes) > 2 {
		mixes = mixes[:2]
	}
	var errs []error
	for _, v := range engineGateVariants {
		for mi, names := range mixes {
			// Same shared-machine budget as Fig15's runs, so the gate
			// certifies exactly what Fig15 computes.
			cfg := multicore.Config{Single: r.sharedConfig(v), Cores: len(names)}
			err := r.compare("multicore-gate", names, cfg.Single, func(mix func() ([]trace.Source, error)) error {
				return multicore.CompareEngines(cfg, mix, 1024, multicore.Probes{}, multicore.Probes{Interval: 1})
			})
			if err != nil {
				errs = append(errs, fmt.Errorf("multicore gate %s/mix%02d: %w", v.label, mi, err))
			}
		}
	}
	return errors.Join(errs...)
}
