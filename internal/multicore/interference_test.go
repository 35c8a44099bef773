package multicore_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"secpref/internal/interference"
	"secpref/internal/mem"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
)

// obsProbes arms the full observer complement: the interference
// observatory, per-core window samplers, and a shared-domain tracer.
func obsProbes(cores int) (multicore.Probes, []*probe.IntervalSampler) {
	samplers := make([]*probe.IntervalSampler, cores)
	windows := make([]probe.WindowObserver, cores)
	for i := range samplers {
		samplers[i] = probe.NewIntervalSampler(16)
		windows[i] = samplers[i]
	}
	return multicore.Probes{
		Interference:       true,
		InterferenceWindow: 4096,
		Windows:            windows,
		WindowInstrs:       500,
		SharedObserver:     probe.NewTracer(4, 1024),
	}, samplers
}

// contendedConfig is detConfig with the LLC shrunk far enough that the
// short determinism run actually generates cross-core evictions — the
// stock 2 MB LLC never evicts in 2k instructions, leaving the matrix
// empty and the gate vacuous.
func contendedConfig() multicore.Config {
	cfg := detConfig()
	cfg.Single.LLC.SizeKiB = 8
	return cfg
}

// matrixWitness reduces a snapshot to the deterministic part: the
// attribution matrix and per-core aggregates. The windowed timeline is
// deliberately excluded — it is barrier-quantized, so different
// intervals legitimately sample different cycles.
type matrixWitness struct {
	Cells   []interference.CellRow
	PerCore []interference.CoreRow
}

func witness(s *interference.Snapshot) matrixWitness {
	return matrixWitness{Cells: s.Cells, PerCore: s.PerCore}
}

// TestObserversPreserveBitIdentity is the satellite equivalence gate:
// attaching the interference observatory, per-core samplers, and a
// shared tracer must leave the digest stream and every per-core result
// bit-identical to the observers-off run and to the lockstep reference
// with the same observers.
func TestObserversPreserveBitIdentity(t *testing.T) {
	cfg := detConfig()

	recPlain := observatory.NewRecorder()
	plain, err := multicore.RunProbed(cfg, detMix(t), multicore.Probes{
		Digest: recPlain, DigestEvery: 512,
	})
	if err != nil {
		t.Fatal(err)
	}

	pObs, parSamplers := obsProbes(cfg.Cores)
	recObs := observatory.NewRecorder()
	pObs.Digest, pObs.DigestEvery = recObs, 512
	obs, err := multicore.RunProbed(cfg, detMix(t), pObs)
	if err != nil {
		t.Fatal(err)
	}

	rObs, refSamplers := obsProbes(cfg.Cores)
	rObs.ReferenceEngine = true
	recRef := observatory.NewRecorder()
	rObs.Digest, rObs.DigestEvery = recRef, 512
	ref, err := multicore.RunProbed(cfg, detMix(t), rObs)
	if err != nil {
		t.Fatal(err)
	}

	if d, bad := observatory.FirstDivergence(recPlain, recObs); bad {
		t.Fatalf("observers changed the digest stream: %s", d)
	}
	if d, bad := observatory.FirstDivergence(recObs, recRef); bad {
		t.Fatalf("observed parallel vs observed reference diverge: %s", d)
	}
	if !reflect.DeepEqual(fp(plain), fp(obs)) {
		t.Fatalf("observers changed results:\nplain %+v\nobs   %+v", fp(plain), fp(obs))
	}
	if !reflect.DeepEqual(fp(obs), fp(ref)) {
		t.Fatalf("engines diverge with observers attached")
	}

	if plain.Interference != nil {
		t.Fatal("observers-off run grew an interference snapshot")
	}
	if obs.Interference == nil || ref.Interference == nil {
		t.Fatal("observed runs missing interference snapshots")
	}
	if !reflect.DeepEqual(witness(obs.Interference), witness(ref.Interference)) {
		t.Fatal("interference matrix differs between engines")
	}

	// Per-core window series must be engine-invariant too: the crossing
	// cycle of every instruction-count boundary is identical.
	for i := range parSamplers {
		ps, rs := parSamplers[i].Samples(), refSamplers[i].Samples()
		if !reflect.DeepEqual(ps, rs) {
			t.Fatalf("core %d window series differ between engines", i)
		}
		if len(ps) == 0 {
			t.Fatalf("core %d produced no window samples", i)
		}
		for _, sm := range ps {
			if sm.Core != i {
				t.Fatalf("core %d sample stamped core %d", i, sm.Core)
			}
		}
	}
}

// TestInterferenceMatrixDeterminism asserts the acceptance criterion:
// the matrix (and per-core aggregates) are bit-identical across
// GOMAXPROCS {1,2,8} × workers {1,2,8} × barrier intervals, with the
// observatory attached.
func TestInterferenceMatrixDeterminism(t *testing.T) {
	cfg := contendedConfig()
	base, _ := obsProbes(cfg.Cores)
	base.Workers = 1
	baseline, err := multicore.RunProbed(cfg, detMix(t), base)
	if err != nil {
		t.Fatal(err)
	}
	want := witness(baseline.Interference)
	wantFP := fp(baseline)
	if total := func() uint64 {
		var n uint64
		for _, c := range want.Cells {
			n += c.Total()
		}
		return n
	}(); total == 0 {
		t.Fatal("matrix empty — run too short to exercise the gate")
	}

	bound := sim.DefaultLinkLatency
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			for _, interval := range []mem.Cycle{1, bound} {
				p, _ := obsProbes(cfg.Cores)
				p.Workers, p.Interval = workers, interval
				got, err := multicore.RunProbed(cfg, detMix(t), p)
				if err != nil {
					t.Fatalf("procs=%d workers=%d interval=%d: %v", procs, workers, interval, err)
				}
				if !reflect.DeepEqual(want, witness(got.Interference)) {
					t.Fatalf("procs=%d workers=%d interval=%d: matrix diverged", procs, workers, interval)
				}
				if !reflect.DeepEqual(wantFP, fp(got)) {
					t.Fatalf("procs=%d workers=%d interval=%d: results diverged", procs, workers, interval)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestCampaignMetricsExposeInterference runs a multicore mix under a
// campaign, hangs the observatory off the campaign's /metrics handler,
// and asserts the exposition carries the full per-core label
// cardinality plus the engine-version stamp — the satellite gate for
// probe.PrometheusWriter composition.
func TestCampaignMetricsExposeInterference(t *testing.T) {
	cfg := contendedConfig()
	// No warmup: the per-core label assertions below need every core to
	// show link traffic, and a warmed-up L2 can absorb a core's whole
	// (short) measured phase.
	cfg.Single.WarmupInstrs = 0
	p, _ := obsProbes(cfg.Cores)
	eng, err := multicore.NewEngine(cfg, detMix(t), p)
	if err != nil {
		t.Fatal(err)
	}

	c := probe.NewCampaign(1)
	c.ExperimentStarted("consolidation-interference")
	c.RunStarted()
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.RunDone(res.PerCore[0].Instructions, res.Cycles)
	c.ExperimentDone()

	h := probe.NewHandler(c, eng.Interference())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: code %d", rec.Code)
	}
	body := rec.Body.String()

	// Campaign counters and observatory series share one exposition.
	if !strings.Contains(body, "secpref_runs_completed_total 1") {
		t.Error("campaign counters missing from /metrics")
	}
	if want := fmt.Sprintf("secpref_interference_engine_info{version=%q} 1", sim.EngineVersion); !strings.Contains(body, want) {
		t.Errorf("/metrics missing engine stamp %q", want)
	}
	for core := 0; core < cfg.Cores; core++ {
		for _, metric := range []string{
			"secpref_interference_occupancy_lines",
			"secpref_interference_dram_reads_total",
		} {
			if want := fmt.Sprintf("%s{core=\"%d\"}", metric, core); !strings.Contains(body, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}
		// Class labels are emitted only when non-zero (a secure core's
		// LLC traffic may be all SUF-class), so require any class here.
		if want := fmt.Sprintf("secpref_interference_link_requests_total{core=\"%d\",class=", core); !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s...}", want)
		}
	}
	if !strings.Contains(body, "secpref_interference_evictions_total{aggressor=") {
		t.Error("/metrics missing the eviction matrix")
	}
}

// TestInterferenceAccounting sanity-checks the snapshot against the
// simulation's own counters: occupancy never exceeds capacity, and the
// matrix total matches the shared LLC's eviction count (tracker
// attached from cycle zero sees every install, so no eviction is
// unattributable; the measured-phase reset makes the comparison
// approximate, so run without warmup).
func TestInterferenceAccounting(t *testing.T) {
	cfg := detConfig()
	cfg.Single.WarmupInstrs = 0
	p, _ := obsProbes(cfg.Cores)
	res, err := multicore.RunProbed(cfg, detMix(t), p)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Interference
	capacity := uint64(s.Sets * s.Ways)
	var occ uint64
	for _, c := range s.PerCore {
		occ += c.OccLines
		if c.OccShare < 0 || c.OccShare > 1 {
			t.Fatalf("core %d occupancy share %f out of range", c.Core, c.OccShare)
		}
	}
	if occ > capacity {
		t.Fatalf("total occupancy %d exceeds LLC capacity %d", occ, capacity)
	}
	var link uint64
	for _, c := range s.PerCore {
		for _, v := range c.Link {
			link += v
		}
	}
	if link == 0 {
		t.Fatal("no link traffic recorded")
	}
	var dram uint64
	for _, c := range s.PerCore {
		dram += c.DRAMReads + c.DRAMWrites
	}
	if dram == 0 {
		t.Fatal("no per-core DRAM activity recorded")
	}
}
