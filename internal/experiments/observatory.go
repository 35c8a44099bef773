package experiments

import (
	"errors"
	"fmt"

	"secpref/internal/multicore"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// engineGateVariants are the configurations both engine gates exercise:
// the full secure stack (GM + SUF + Berti/TSB — every digested
// component live) and a non-secure on-access system (the other
// training/fill wiring).
var engineGateVariants = []cfgVariant{timelySecureSUF("berti"), onAccessNonSecure("berti")}

// mixSources builds the trace sources for one named mix with the
// runner's budgets (the runMix convention).
func (r *Runner) mixSources(names []string) ([]trace.Source, error) {
	mix := make([]trace.Source, len(names))
	for i, name := range names {
		tr, err := workload.Get(name, workload.Params{Instrs: r.opts.Instrs + r.opts.Warmup, Seed: r.opts.Seed})
		if err != nil {
			return nil, err
		}
		mix[i] = trace.NewSource(tr)
	}
	return mix, nil
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
		errs = append(errs, r.forEachTrace(func(name string) error {
			err := sim.CompareEngines(cfg, func() ([]trace.Source, error) { return r.mixSources([]string{name}) }, 0)
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
			cfg := multicore.Config{Single: v.config(r.opts), Cores: len(names)}
			// Same reduced per-core budget as the campaign's runMix, so
			// the gate certifies exactly what Fig15 computes.
			cfg.Single.MaxInstrs = r.opts.Instrs / 2
			cfg.Single.WarmupInstrs = r.opts.Warmup / 2
			mix := func() ([]trace.Source, error) { return r.mixSources(names) }
			if err := multicore.CompareEngines(cfg, mix, 1024, multicore.Probes{}, multicore.Probes{Interval: 1}); err != nil {
				errs = append(errs, fmt.Errorf("multicore gate %s/mix%02d: %w", v.label, mi, err))
			}
		}
	}
	return errors.Join(errs...)
}
