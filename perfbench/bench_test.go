package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/sim"
	"secpref/internal/trace"
)

// testSize is the benchmark at reduced length.
var testSize = size{warmup: 2_000, measured: 6_000, instances: 1, mcWarmup: 1_000, mcMeasured: 3_000, setups: 2}

func newTestRunner(t *testing.T, name string, seed int64) *runner {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(w, seed, testSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	if _, err := r.setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	return r
}

func digests(t *testing.T, ops []opResult) []uint64 {
	t.Helper()
	out := make([]uint64, len(ops))
	for i, op := range ops {
		if op.err != nil {
			t.Fatalf("operation %d: %v", i, op.err)
		}
		out[i] = op.digest
	}
	return out
}

// The timing Source wrapper, the attribution Profile and the observers
// must leave every operation's output digest unchanged; mc-observed
// must reproduce mc-mix.
func TestTracingLeavesDigestsUnchanged(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := newTestRunner(t, w.name, 1)
			plain := digests(t, r.round(nil, -1, nil, true))
			untraced := digests(t, r.round(nil, -1, nil, false))
			rec := &recorder{}
			sp := rec.begin("round", -1)
			traced := digests(t, r.round(rec, sp, &roundTrace{}, false))
			rec.end(sp)
			if !slices.Equal(plain, untraced) || !slices.Equal(plain, traced) {
				t.Fatalf("digests differ: plain %x untraced %x traced %x", plain, untraced, traced)
			}
		})
	}
}

// The event engine must produce the lockstep reference engine's output
// on every workload.
func TestEventEngineMatchesReference(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := newTestRunner(t, w.name, 1)
			want := digests(t, r.round(nil, -1, nil, true))
			var got []uint64
			if w.multicore {
				mix := make([]trace.Source, len(r.traces))
				for i, tr := range r.traces {
					mix[i] = trace.NewSource(tr)
				}
				res, err := multicore.RunProbed(r.multicoreConfig(), mix, multicore.Probes{ReferenceEngine: true})
				if err != nil {
					t.Fatal(err)
				}
				d, err := digest(res)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, d)
			} else {
				for _, tr := range r.traces {
					res, err := sim.RunProbed(r.singleConfig(), trace.NewSource(tr), sim.Probes{ReferenceEngine: true})
					if err != nil {
						t.Fatal(err)
					}
					d, err := digest(res)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, d)
				}
			}
			if !slices.Equal(want, got) {
				t.Fatalf("event engine %x, reference engine %x", want, got)
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func runTiny(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := execute(options{workload: w, seed: seed, seconds: 1, traced: traced, size: testSize}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d",
			name, seed, traced, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// Every printed workload, metric name and unit must match BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check := func(rep *report, want map[string]string) {
		t.Helper()
		if len(rep.Metrics) != len(want) {
			t.Fatalf("printed %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
		}
		for name, m := range rep.Metrics {
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("printed %s in %q; BENCHMARK.json has %q (listed: %v)", name, m.Unit, u, ok)
			}
		}
	}
	check(runTiny(t, "sc-base", 1, false), e2e)
	check(runTiny(t, "mc-mix", 1, true), layer)
}

// sc-base runs no GhostMinion, SUF or prefetcher; sc-secure runs all
// three.
func TestBaseIdleSecureActive(t *testing.T) {
	secureOnly := []string{"ghostminion.mpki", "ghostminion.refetch_pki", "core.suf_drops_pki",
		"prefetch.issued_pki", "sim.ticks.gm", "ghostminion.tick_s", "cache.l1d.apki_prefetch"}
	base := runTiny(t, "sc-base", 1, true)
	secure := runTiny(t, "sc-secure", 1, true)
	for _, name := range secureOnly {
		if v := base.Metrics[name].Value; v != 0 {
			t.Errorf("sc-base %s = %v, want 0", name, v)
		}
		if v := secure.Metrics[name].Value; v <= 0 {
			t.Errorf("sc-secure %s = %v, want > 0", name, v)
		}
	}
}

// exactMetrics are the traced metrics that are counts or ratios of
// counts: they repeat exactly for one seed.
var exactMetrics = []string{"trace.batches", "sim.advances", "sim.skip_frac", "sim.ticks.core", "sim.ticks.gm",
	"sim.ticks.l1d", "sim.ticks.l2", "sim.ticks.llc", "sim.ticks.dram", "sim.ticks.link",
	"bpred.mpki", "cpu.lq_full_frac", "cpu.load_miss_lat_cyc", "cache.l1d.mpki", "cache.llc.mpki",
	"prefetch.accuracy", "dram.rpki", "dram.row_hit_rate", "dram.lat_cyc"}

// ipc and the exact counts repeat across two invocations with one seed
// and change with another.
func TestSeedDeterminesOutputs(t *testing.T) {
	for _, name := range []string{"sc-secure", "mc-mix"} {
		t.Run(name, func(t *testing.T) {
			a, b := runTiny(t, name, 1, false), runTiny(t, name, 1, false)
			other := runTiny(t, name, 2, false)
			if a.Metrics["ipc"] != b.Metrics["ipc"] {
				t.Errorf("ipc %v then %v with one seed", a.Metrics["ipc"], b.Metrics["ipc"])
			}
			if a.Metrics["ipc"] == other.Metrics["ipc"] {
				t.Errorf("ipc %v with seeds 1 and 2", a.Metrics["ipc"])
			}
			ta, tb := runTiny(t, name, 1, true), runTiny(t, name, 1, true)
			var differ []string
			for _, m := range exactMetrics {
				if ta.Metrics[m] != tb.Metrics[m] {
					differ = append(differ, m)
				}
			}
			if len(differ) > 0 {
				t.Errorf("counts differ between two runs with one seed: %v", differ)
			}
			if to := runTiny(t, name, 2, true); to.Metrics["sim.advances"] == ta.Metrics["sim.advances"] {
				t.Errorf("sim.advances %v with seeds 1 and 2", ta.Metrics["sim.advances"])
			}
		})
	}
}
