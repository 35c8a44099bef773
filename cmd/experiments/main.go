// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-instrs N] [-warmup N] [-mixes N] [-traces a,b,c]
//	            [-timeseries DIR] [-http ADDR] [-leakage-gate] [-digest-gate]
//	            [-multicore-gate] [-simprofile PATH] [-fig id | -table n | -all]
//
// Each experiment prints the same rows/series the paper reports (see
// DESIGN.md for the per-experiment index). -all runs everything in
// paper order. -timeseries additionally exports a per-run interval
// time series and request-lifecycle trace; -http serves live campaign
// telemetry (Prometheus /metrics, expvar, pprof) while running;
// -simprofile aggregates engine-attribution counters across every run
// and writes the sim-profile table as PATH.json and PATH.csv;
// -digest-gate verifies the event engine against the lockstep
// reference at every state-digest checkpoint. See
// docs/observability.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"secpref/internal/experiments"
	"secpref/internal/export"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
)

// figChoices regenerates the -fig help from the experiment registry so
// the flag text can never go stale against experiments.IDs.
func figChoices() string {
	var out []string
	for _, id := range experiments.IDs {
		if strings.HasPrefix(id, "table") {
			continue
		}
		out = append(out, strings.TrimPrefix(id, "fig"))
	}
	out = append(out, experiments.ExtensionIDs...)
	return strings.Join(out, ",")
}

func tableChoices() string {
	var out []string
	for _, id := range experiments.IDs {
		if strings.HasPrefix(id, "table") {
			out = append(out, strings.TrimPrefix(id, "table"))
		}
	}
	return strings.Join(out, ",")
}

func main() {
	var (
		quick      = flag.Bool("quick", false, "smoke-scale campaign (fewer traces, shorter runs)")
		instrs     = flag.Int("instrs", 0, "measured instructions per run (0 = default)")
		warmup     = flag.Int("warmup", 0, "warmup instructions per run (0 = default)")
		mixes      = flag.Int("mixes", 0, "4-core mixes for fig15 (0 = default)")
		traces     = flag.String("traces", "", "comma-separated trace subset")
		figID      = flag.String("fig", "", "figure to regenerate ("+figChoices()+")")
		tabID      = flag.String("table", "", "table to regenerate ("+tableChoices()+")")
		all        = flag.Bool("all", false, "regenerate every paper experiment")
		ext        = flag.Bool("ext", false, "also run extension experiments (SMT, ablations)")
		par        = flag.Int("p", 0, "parallel simulations (0 = GOMAXPROCS)")
		asJSON     = flag.Bool("json", false, "emit tables as JSON instead of text")
		timeseries = flag.String("timeseries", "", "export per-run interval time series and lifecycle traces into this directory")
		httpAddr   = flag.String("http", "", "serve live campaign telemetry (/metrics, /debug/vars, /debug/pprof) on this address")
		leakGate   = flag.Bool("leakage-gate", false, "fail unless the secure configuration audits zero tainted survivors and zero speculative trains (CI gate)")
		digestGate = flag.Bool("digest-gate", false, "fail unless the event engine and the lockstep reference agree at every state-digest checkpoint (CI gate)")
		mcGate     = flag.Bool("multicore-gate", false, "fail unless the barrier-parallel multicore engine matches the serial lockstep reference bit-for-bit on representative mixes (CI gate)")
		simProfile = flag.String("simprofile", "", "aggregate engine-attribution profiling across all runs and write the sim-profile table as PATH.json and PATH.csv")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *instrs > 0 {
		opts.Instrs = *instrs
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *mixes > 0 {
		opts.Mixes = *mixes
	}
	if *traces != "" {
		opts.Traces = strings.Split(*traces, ",")
	}
	if *par > 0 {
		opts.Parallelism = *par
	}
	opts.TimeseriesDir = *timeseries

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs
		if *ext {
			ids = append(append([]string{}, ids...), experiments.ExtensionIDs...)
		}
	case *ext:
		ids = experiments.ExtensionIDs
	case *figID != "":
		id := *figID
		if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "suf") &&
			!strings.HasPrefix(id, "smt") && !strings.HasPrefix(id, "ablate") && !strings.HasPrefix(id, "tsb") &&
			!strings.HasPrefix(id, "leakage") && !strings.HasPrefix(id, "consolidation") {
			id = "fig" + id
		}
		ids = []string{id}
	case *tabID != "":
		ids = []string{"table" + *tabID}
	case *leakGate, *digestGate, *mcGate:
		// Gate-only invocation: no experiment tables, just the checks.
	case *timeseries != "":
		// A time-series export with no experiment selected defaults to the
		// miss-latency study — the figure its per-window metrics track.
		ids = []string{"fig4"}
	default:
		fmt.Fprintln(os.Stderr, "specify -fig, -table, or -all; experiments:", strings.Join(experiments.IDs, " "))
		os.Exit(2)
	}

	campaign := probe.NewCampaign(len(ids))
	campaign.SetEngineVersion(sim.EngineVersion)
	opts.Campaign = campaign
	var aggregate *observatory.Aggregate
	if *simProfile != "" {
		aggregate = observatory.NewAggregate()
		opts.Profile = aggregate
	}
	if *httpAddr != "" {
		campaign.Publish()
		var extra []probe.PrometheusWriter
		if aggregate != nil {
			extra = append(extra, aggregate)
		}
		addr, _, err := probe.Serve(*httpAddr, campaign, extra...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: telemetry server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", addr)
	}
	r := experiments.NewRunner(opts)

	for i, id := range ids {
		start := time.Now()
		doneBefore, _ := campaign.Runs()
		campaign.ExperimentStarted(id)
		t, err := r.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		campaign.ExperimentDone()
		if *asJSON {
			raw, err := t.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Print(string(raw))
		} else {
			fmt.Print(t.String())
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
		done, _ := campaign.Runs()
		summary := fmt.Sprintf("experiments: [%d/%d] %s: %d runs in %.1fs", i+1, len(ids), id, done-doneBefore, time.Since(start).Seconds())
		if eta := campaign.ETA(); eta > 0 {
			summary += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, summary)
	}
	if *leakGate {
		start := time.Now()
		if err := r.SecureLeakageGate(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: leakage gate passed in %.1fs (secure config audits clean; non-secure channels detected)\n", time.Since(start).Seconds())
	}
	if *digestGate {
		start := time.Now()
		if err := r.DigestEquivalenceGate(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: digest gate passed in %.1fs (event and reference engines agree at every checkpoint and in every result)\n", time.Since(start).Seconds())
	}
	if *mcGate {
		start := time.Now()
		if err := r.MulticoreEquivalenceGate(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: multicore gate passed in %.1fs (parallel runs at the safety bound and at interval 1 bit-identical to the reference)\n", time.Since(start).Seconds())
	}
	if aggregate != nil {
		snap := aggregate.Snapshot()
		if err := export.WriteFiles(filepath.Dir(*simProfile), snap.Files(filepath.Base(*simProfile), "")...); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, aggregate.String())
		fmt.Fprintf(os.Stderr, "experiments: sim-profile table in %s.json and %s.csv\n", *simProfile, *simProfile)
	}
	if *timeseries != "" {
		fmt.Fprintf(os.Stderr, "experiments: time series and lifecycle traces in %s\n", *timeseries)
	}
}
