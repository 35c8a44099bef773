// Command secpref runs one simulation and prints its statistics.
//
// Usage:
//
//	secpref -trace 605.mcf-1554B -prefetcher berti -mode ts -secure -suf
//	secpref -trace 605.mcf-1554B -prefetcher berti -mode ts -timeseries out/
//	secpref -list
//
// -timeseries additionally exports an interval time series
// (<base>.series.json/.csv) and a Perfetto-loadable request-lifecycle
// trace (<base>.trace.json) into the given directory; -simprofile
// attaches engine-attribution profiling and writes the sim-profile
// table as PATH.json/.csv (plus PATH.trace.json counter tracks when
// combined with -timeseries); see docs/observability.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"secpref"
	"secpref/internal/export"
	"secpref/internal/leakage"
	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/prefetch"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
)

func main() {
	var (
		traceName = flag.String("trace", "605.mcf-1554B", "workload trace name")
		traceFile = flag.String("tracefile", "", "binary trace file (from tracegen) instead of -trace")
		pf        = flag.String("prefetcher", "none", "prefetcher: none|"+strings.Join(secpref.Prefetchers(), "|"))
		mode      = flag.String("mode", "on-access", "prefetch mode: on-access|on-commit|ts")
		secure    = flag.Bool("secure", false, "use the GhostMinion secure cache system")
		suf       = flag.Bool("suf", false, "enable the Secure Update Filter")
		instrs    = flag.Int("instrs", 200_000, "measured instructions")
		warmup    = flag.Int("warmup", 50_000, "warmup instructions")
		seed      = flag.Int64("seed", 1, "workload seed")
		list      = flag.Bool("list", false, "list available traces and exit")
		tsDir     = flag.String("timeseries", "", "export interval time series and lifecycle trace into this directory")
		leak      = flag.Bool("leakage", false, "attach the leakage auditor and print the taint scoreboard after the run")
		simProf   = flag.String("simprofile", "", "attach engine-attribution profiling and write the sim-profile table as PATH.json and PATH.csv")
	)
	flag.Parse()

	if *list {
		fmt.Println("SPEC-like traces:")
		fmt.Println(" ", strings.Join(secpref.WorkloadSuite("spec"), " "))
		fmt.Println("GAP traces:")
		fmt.Println(" ", strings.Join(secpref.WorkloadSuite("gap"), " "))
		return
	}

	cfg := secpref.DefaultConfig()
	cfg.Prefetcher = *pf
	cfg.Secure = *secure
	cfg.SUF = *suf
	cfg.WarmupInstrs = *warmup
	cfg.MaxInstrs = *instrs
	switch *mode {
	case "on-access":
		cfg.Mode = secpref.ModeOnAccess
	case "on-commit":
		cfg.Mode = secpref.ModeOnCommit
	case "ts", "timely-secure":
		cfg.Mode = secpref.ModeTimelySecure
	default:
		fmt.Fprintf(os.Stderr, "secpref: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	// With -timeseries, the run carries an interval sampler and a
	// request-lifecycle tracer; both are exported after the run. A single
	// interactive run affords denser sampling than a campaign: every 16th
	// load is traced into a 32Ki-event ring.
	var probes secpref.Probes
	var sampler *probe.IntervalSampler
	var tracer *probe.Tracer
	if *tsDir != "" {
		sampler = probe.NewIntervalSampler(*instrs/1000 + 2)
		tracer = probe.NewTracer(16, 1<<15)
		probes = secpref.Probes{Observer: tracer, Window: sampler}
	}
	var auditor *leakage.Auditor
	if *leak {
		auditor = leakage.NewAuditor()
		probes.Observer = probe.Fanout(probes.Observer, auditor)
	}
	var prof *observatory.Profile
	if *simProf != "" {
		prof = observatory.NewProfile()
		probes.Profile = prof
	}

	var res *secpref.Result
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "secpref:", ferr)
			os.Exit(1)
		}
		tr, ferr := trace.Read(f)
		f.Close()
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "secpref:", ferr)
			os.Exit(1)
		}
		res, err = secpref.RunTraceProbed(cfg, tr, probes)
	} else {
		res, err = secpref.RunProbed(cfg, *traceName, secpref.WorkloadParams{Instrs: *instrs + *warmup, Seed: *seed}, probes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "secpref:", err)
		os.Exit(1)
	}
	if *tsDir != "" {
		files := probe.RunFiles(res.TraceName, cfg.Label(), sampler, tracer)
		if err := writeFiles(*tsDir, files); err != nil {
			fmt.Fprintln(os.Stderr, "secpref:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "secpref: %d windows, %d trace events\n", sampler.Len(), len(tracer.Events()))
	}
	if prof != nil {
		files := prof.Files(filepath.Base(*simProf), res.TraceName+" "+cfg.Label())
		if err := writeFiles(filepath.Dir(*simProf), files); err != nil {
			fmt.Fprintln(os.Stderr, "secpref:", err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, prof.String())
	}

	fmt.Printf("trace:            %s\n", res.TraceName)
	fmt.Printf("config:           %s\n", cfg.Label())
	fmt.Printf("instructions:     %d\n", res.Instructions)
	fmt.Printf("cycles:           %d\n", res.Cycles)
	fmt.Printf("IPC:              %.4f\n", res.IPC)
	fmt.Printf("load miss lat:    %.1f cycles\n", res.LoadMissLatency())
	ap := res.L1DAPKI()
	fmt.Printf("L1D APKI:         load=%.1f prefetch=%.1f commit=%.1f\n", ap.Load, ap.Prefetch, ap.Commit)
	fmt.Printf("branch mispred:   %.2f%%\n", res.Core.MispredictRate()*100)
	if !prefetch.IsNone(cfg.Prefetcher) {
		home := sim.HomeOf(cfg.Prefetcher)
		fmt.Printf("pref accuracy:    %.1f%% (at %s)\n", res.PrefAccuracy(home)*100, home)
	}
	if cfg.Secure {
		fmt.Printf("GM miss rate:     %.1f%%\n", 100*float64(res.GM.Misses[mem.KindLoad])/float64(max(1, res.GM.Accesses[mem.KindLoad])))
		fmt.Printf("commit writes:    %d, refetches: %d\n", res.L1D.Accesses[mem.KindCommitWrite], res.L1D.Accesses[mem.KindRefetch])
	}
	if cfg.SUF {
		fmt.Printf("SUF drops:        %d (accuracy %.2f%%)\n", res.Core.SUFDrops, res.SUFAccuracy()*100)
	}
	fmt.Printf("dynamic energy:   %.2f uJ\n", res.Energy.Total()/1e6)
	if auditor != nil {
		sb := auditor.Scoreboard()
		fmt.Printf("leakage audit:    %s\n", sb.String())
	}
}

// writeFiles writes files into dir and reports their paths on stderr.
func writeFiles(dir string, files []export.File) error {
	if err := export.WriteFiles(dir, files...); err != nil {
		return err
	}
	for _, f := range files {
		fmt.Fprintf(os.Stderr, "secpref: wrote %s\n", filepath.Join(dir, f.Name))
	}
	return nil
}
