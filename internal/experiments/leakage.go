package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"secpref/internal/attack"
	"secpref/internal/export"
	"secpref/internal/leakage"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// leakageVariants are the attack-harness systems the security
// scoreboard compares: the undefended baseline, GhostMinion with the
// insecure training discipline, and the paper's full defense.
var leakageVariants = []struct {
	name     string
	secure   bool
	onCommit bool
}{
	{"non-secure/on-access", false, false},
	{"secure/on-access", true, false},
	{"secure/on-commit", true, true},
}

// LeakageAudit produces the per-(variant, prefetcher) security
// scoreboard: taint-audit counters and channel estimates for the
// direct cache channel and (when a prefetcher is attached) the
// prefetcher-training channel, plus full-campaign audit rows for the
// secure and insecure disciplines over real traces.
func (r *Runner) LeakageAudit() (*Table, error) {
	t := &Table{
		ID:    "leakage-audit",
		Title: "Security scoreboard: taint-audit counters and channel leakage per variant × prefetcher",
		Header: []string{
			"variant", "prefetcher", "tainted", "spec-trains",
			"direct bits/trial", "direct MI(lat)", "direct sep",
			"pf bits/trial", "pf sep",
		},
		Notes: []string{
			"tainted: persistent-structure mutations (lines, repl-meta, train-tables) by later-squashed work; spec-trains: prefetcher trainings on uncommitted accesses — both must be 0 on secure/on-commit",
			"bits/trial: empirical mutual information of the (secret, inferred) prime+probe channel (16-way secret = 4 bits max); MI(lat): upper bound from probe-latency distributions; sep: mean other-slot minus secret-slot probe latency in cycles",
			"secure rows keep a nonzero MI(lat)/sep: the victim's transient DRAM access leaves its row buffer open and the attacker's matching probe row-hits ~50 cycles faster — the DRAMA-style residue outside GhostMinion's cache-state threat model (the audit columns, its actual claim, are zero)",
			fmt.Sprintf("campaign rows audit full sim runs (berti, %d traces × %d instrs); attack rows use the prime+probe harness, one trial per candidate secret", len(r.opts.Traces), r.opts.Instrs),
		},
	}

	prefetchers := append([]string{"none"}, Prefetchers...)
	type rowResult struct {
		cells []string
		err   error
	}
	rows := make([]rowResult, len(leakageVariants)*len(prefetchers))
	var wg sync.WaitGroup
	for vi, v := range leakageVariants {
		for pi, pf := range prefetchers {
			wg.Add(1)
			go func(idx int, v struct {
				name     string
				secure   bool
				onCommit bool
			}, pf string) {
				defer wg.Done()
				r.sem <- struct{}{}
				defer func() { <-r.sem }()
				cfg := attack.Config{Secure: v.secure, OnCommitPrefetch: v.onCommit}
				if pf != "none" {
					cfg.Prefetcher = pf
				}
				direct, err := attack.MeasureChannel(cfg, attack.ChannelCache, 0)
				if err != nil {
					rows[idx] = rowResult{err: err}
					return
				}
				tainted := direct.Audit.TaintedSurvivors
				trains := direct.Audit.SpecTrains
				pfBits, pfSep := "-", "-"
				if pf != "none" {
					pc, err := attack.MeasureChannel(cfg, attack.ChannelPrefetch, 0)
					if err != nil {
						rows[idx] = rowResult{err: err}
						return
					}
					tainted += pc.Audit.TaintedSurvivors
					trains += pc.Audit.SpecTrains
					pfBits = f2(pc.BitsPerTrial)
					pfSep = f1(pc.Separation)
				}
				rows[idx] = rowResult{cells: []string{
					v.name, pf,
					strconv.FormatUint(tainted, 10), strconv.FormatUint(trains, 10),
					f2(direct.BitsPerTrial), f3(direct.LatencyMI), f1(direct.Separation),
					pfBits, pfSep,
				}}
			}(vi*len(prefetchers)+pi, v, pf)
		}
	}
	wg.Wait()
	for _, row := range rows {
		if row.err != nil {
			return nil, row.err
		}
		t.AddRow(row.cells...)
	}

	// Full-campaign audit: the same scoreboard over real sim runs for
	// the secure discipline (must be zero) and the insecure one.
	for _, v := range []cfgVariant{onCommitSecure("berti"), onAccessNonSecure("berti")} {
		sb, err := r.auditCampaign(v)
		if err != nil {
			return nil, err
		}
		t.AddRow("campaign: "+v.label, v.prefetcher,
			strconv.FormatUint(sb.TaintedSurvivors, 10), strconv.FormatUint(sb.SpecTrains, 10),
			"-", "-", "-", "-", "-")
	}

	if r.opts.TimeseriesDir != "" {
		if err := export.WriteFiles(r.opts.TimeseriesDir, t.files()...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// auditCampaign runs variant v over every trace with a leakage auditor
// attached and returns the merged scoreboard. Audited runs are not
// memoized: they exist for their observer side channel, and the
// equivalence guarantee keeps them bit-identical to the plain runs.
func (r *Runner) auditCampaign(v cfgVariant) (leakage.Scoreboard, error) {
	var (
		mu    sync.Mutex
		total leakage.Scoreboard
	)
	err := r.forEachTrace(func(name string) error {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		tr, err := workload.Get(name, workload.Params{Instrs: r.opts.Instrs + r.opts.Warmup, Seed: r.opts.Seed})
		if err != nil {
			return err
		}
		aud := leakage.NewAuditor()
		if _, err := sim.RunProbed(v.config(r.opts), trace.NewSource(tr), sim.Probes{Observer: aud}); err != nil {
			return fmt.Errorf("%s (%s): %w", name, v.label, err)
		}
		sb := aud.Scoreboard()
		mu.Lock()
		total.Merge(&sb)
		mu.Unlock()
		return nil
	})
	return total, err
}

// SecureLeakageGate is the CI invariant check. It fails when the
// secure configuration leaves any speculative trace (attack harness or
// full quick campaign), and also when the estimator can no longer see
// the non-secure channels — a dead detector would make the zeros
// meaningless.
func (r *Runner) SecureLeakageGate() error {
	// 1. Detector sanity: the undefended direct channel must audit dirty
	// and leak near the full secret.
	direct, err := attack.MeasureChannel(attack.Config{}, attack.ChannelCache, 0)
	if err != nil {
		return err
	}
	if direct.BitsPerTrial < 0.9 {
		return fmt.Errorf("leakage gate: non-secure direct channel measured %.2f bits/trial, want >= 0.9 (estimator broken?)", direct.BitsPerTrial)
	}
	if direct.Audit.TaintedSurvivors == 0 {
		return fmt.Errorf("leakage gate: non-secure transient fills were not audited as tainted (auditor broken?): %s", direct.Audit.String())
	}
	onAccess, err := attack.MeasureChannel(attack.Config{Secure: true, Prefetcher: "ip-stride"}, attack.ChannelPrefetch, 0)
	if err != nil {
		return err
	}
	if onAccess.Audit.SpecTrains == 0 {
		return fmt.Errorf("leakage gate: on-access training not audited as speculative: %s", onAccess.Audit.String())
	}

	// 2. The defended configurations must audit provably clean.
	for _, pf := range []string{"", "ip-stride"} {
		cfg := attack.Config{Secure: true, Prefetcher: pf, OnCommitPrefetch: pf != ""}
		m, err := attack.MeasureChannel(cfg, attack.ChannelCache, 0)
		if err != nil {
			return err
		}
		if !m.Audit.Clean() {
			return fmt.Errorf("leakage gate: secure config (pf=%q) direct-channel audit: %s", pf, m.Audit.String())
		}
		if pf != "" {
			m, err = attack.MeasureChannel(cfg, attack.ChannelPrefetch, 0)
			if err != nil {
				return err
			}
			if !m.Audit.Clean() {
				return fmt.Errorf("leakage gate: secure config (pf=%q) prefetch-channel audit: %s", pf, m.Audit.String())
			}
		}
	}

	// 3. The secure quick campaign: zero tainted survivors, zero
	// speculative trains across every trace.
	sb, err := r.auditCampaign(onCommitSecure("berti"))
	if err != nil {
		return err
	}
	if !sb.Clean() {
		return fmt.Errorf("leakage gate: secure campaign audit: %s", sb.String())
	}
	if sb.SpecAccesses == 0 {
		return fmt.Errorf("leakage gate: secure campaign audit is vacuous (no speculation witnessed): %s", sb.String())
	}
	return nil
}
