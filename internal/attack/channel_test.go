package attack

import (
	"math"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/probe"
)

// TestObserverSeesAttackTraffic is the wiring test: with Config.Obs
// set, the probe layer must see the harness's traffic at both the core
// and the hierarchy sites.
func TestObserverSeesAttackTraffic(t *testing.T) {
	for _, secure := range []bool{false, true} {
		rec := &recordingObs{}
		s, err := NewSystem(Config{Secure: secure, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommittedLoad(0x100, 0xA0); err != nil {
			t.Fatal(err)
		}
		if err := s.TransientLoads([]mem.Line{0x200}, 0xB0); err != nil {
			t.Fatal(err)
		}
		counts := map[probe.Site]int{}
		kinds := map[probe.EventKind]int{}
		for _, ev := range rec.evs {
			counts[ev.Site]++
			kinds[ev.Kind]++
		}
		if counts[probe.SiteCore] == 0 || counts[probe.SiteL1D] == 0 {
			t.Errorf("secure=%v: probes missed attack traffic: sites=%v", secure, counts)
		}
		if kinds[probe.EvIssue] == 0 || kinds[probe.EvFill] == 0 || kinds[probe.EvCommit] == 0 {
			t.Errorf("secure=%v: core lifecycle not observed: kinds=%v", secure, kinds)
		}
		if kinds[probe.EvSquash] != 1 {
			t.Errorf("secure=%v: squash events = %d, want 1", secure, kinds[probe.EvSquash])
		}
		if secure && counts[probe.SiteGM] == 0 {
			t.Errorf("GM traffic not observed: sites=%v", counts)
		}
	}
}

type recordingObs struct{ evs []probe.Event }

func (r *recordingObs) Event(ev probe.Event) { r.evs = append(r.evs, ev) }

func TestDirectChannelNonSecure(t *testing.T) {
	m, err := MeasureChannel(Config{}, ChannelCache, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar is >= 0.9 bits/trial; an unprotected hierarchy
	// actually gives the attacker the full 4-bit secret every trial.
	if m.BitsPerTrial < 0.9 {
		t.Errorf("non-secure direct channel: %.2f bits/trial, want >= 0.9", m.BitsPerTrial)
	}
	if m.Separation < float64(CachedThreshold) {
		t.Errorf("non-secure direct channel: separation %.1f cycles, want clear hit/miss split", m.Separation)
	}
	if m.LatencyMI <= 0 {
		t.Errorf("non-secure direct channel: latency MI = %.3f, want > 0", m.LatencyMI)
	}
	if m.Audit.TaintedSurvivors == 0 {
		t.Errorf("non-secure transient fills must audit as tainted survivors: %s", m.Audit.String())
	}
}

func TestDirectChannelSecureClean(t *testing.T) {
	m, err := MeasureChannel(Config{Secure: true}, ChannelCache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.BitsPerTrial > 0.1 {
		t.Errorf("secure direct channel: %.2f bits/trial, want ~0", m.BitsPerTrial)
	}
	if !m.Audit.Clean() {
		t.Errorf("secure direct channel must audit clean: %s", m.Audit.String())
	}
	// The clean verdict must come from a real audit: speculation and
	// squashes were witnessed.
	if m.Audit.SpecAccesses == 0 || m.Audit.Squashes == 0 {
		t.Errorf("audit coverage missing: %s", m.Audit.String())
	}
}

func TestPrefetchChannelOnAccess(t *testing.T) {
	// The paper's motivating attack: GhostMinion alone does not stop a
	// speculatively-trained prefetcher from leaking.
	m, err := MeasureChannel(Config{Secure: true, Prefetcher: "ip-stride"}, ChannelPrefetch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.BitsPerTrial < 0.9 {
		t.Errorf("on-access prefetch channel: %.2f bits/trial, want >= 0.9", m.BitsPerTrial)
	}
	if m.Audit.SpecTrains == 0 {
		t.Errorf("on-access training must audit as speculative trains: %s", m.Audit.String())
	}
	if m.Audit.TaintedSurvivors == 0 {
		t.Errorf("squashed training state must audit as tainted: %s", m.Audit.String())
	}
}

func TestPrefetchChannelOnCommitClean(t *testing.T) {
	m, err := MeasureChannel(Config{Secure: true, Prefetcher: "ip-stride", OnCommitPrefetch: true}, ChannelPrefetch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.BitsPerTrial > 0.1 {
		t.Errorf("on-commit prefetch channel: %.2f bits/trial, want ~0", m.BitsPerTrial)
	}
	if !m.Audit.Clean() {
		t.Errorf("on-commit discipline must audit clean: %s", m.Audit.String())
	}
}

// TestProbeLatenciesThroughProbeLayer checks that the recorder's view
// (probe events) agrees exactly with the harness-returned latencies —
// the histograms really are measured through the probe layer.
func TestProbeLatenciesThroughProbeLayer(t *testing.T) {
	rec := &probeRecorder{}
	out, err := SpectreCacheLeak(Config{Obs: rec}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.fills) < len(out.Latencies) {
		t.Fatalf("recorder saw %d fills, want >= %d", len(rec.fills), len(out.Latencies))
	}
	fills := rec.fills[len(rec.fills)-len(out.Latencies):]
	for i, f := range fills {
		if f.Aux != uint64(out.Latencies[i]) {
			t.Errorf("probe %d: event latency %d != outcome latency %d", i, f.Aux, out.Latencies[i])
		}
	}
}

// TestChannelEstimateDeterministic repeats one measurement that leaks
// part of the secret: the estimates must come out bit-identical every
// time, whatever the iteration order of the estimators' tables.
func TestChannelEstimateDeterministic(t *testing.T) {
	cfg := Config{Secure: true, Prefetcher: "ip-stride", OnCommitPrefetch: true}
	var first *ChannelMeasurement
	for i := 0; i < 20; i++ {
		m, err := MeasureChannel(cfg, ChannelCache, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			if m.BitsPerTrial <= 0 || m.BitsPerTrial >= 4 {
				t.Fatalf("%.3f bits/trial: want a partial channel, strictly between 0 and 4", m.BitsPerTrial)
			}
			first = m
			continue
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"bits/trial", m.BitsPerTrial, first.BitsPerTrial}, {"latency MI", m.LatencyMI, first.LatencyMI}, {"separation", m.Separation, first.Separation}} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("repeat %d: %s %v, first run %v", i, f.name, f.got, f.want)
			}
		}
	}
}
