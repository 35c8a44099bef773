package multicore_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"secpref/internal/export"
	"secpref/internal/multicore"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// exportPins holds observatory.HashBytes (as %016x) of every artifact
// the observers export for two fixed runs: a 4-core mix (mcf, bwa,
// roms, bfs; seed 1; 2k warmup + 6k measured instructions per core;
// secure TSB+SUF Berti) with the interference observatory, per-core
// interval samplers, a shared lifecycle tracer and a profile, and a
// single-core bfs run with a sampler, a tracer and a profile. The
// aggregate files export the Aggregate of both profiles. Any change to
// an exporter's bytes shows up here by file name.
var exportPins = map[string]string{
	"mix/core0.series.json":        "91d310b2aa6f3ead",
	"mix/core0.series.csv":         "1e2a5db7c8ec6874",
	"mix/core1.series.json":        "59afbbc9b7e280e3",
	"mix/core1.series.csv":         "d87b4ce9f8b336f7",
	"mix/core2.series.json":        "3cbb2f34c4851a92",
	"mix/core2.series.csv":         "bcd8f3f772efc610",
	"mix/core3.series.json":        "e2f1a33446b88156",
	"mix/core3.series.csv":         "5365560aa82656dd",
	"mix/shared.trace.json":        "b82a216f6e3d79d9",
	"mix/simprofile.json":          "5b974dc3c84ea048",
	"mix/simprofile.csv":           "04b2e69d49b9aff6",
	"mix/simprofile.prom":          "167bbf9b1c6a73fc",
	"mix/simprofile.trace.json":    "84dcfc253d301db6",
	"mix/interference.json":        "987f1844173502ea",
	"mix/interference.csv":         "2b72f003e3ce6395",
	"mix/interference.prom":        "3221a36d98be0194",
	"mix/interference.trace.json":  "5a82f31ac3307d9d",
	"single/bfs.series.json":       "3b3734a4d72e5b14",
	"single/bfs.series.csv":        "e6eaefc25d982cb5",
	"single/bfs.trace.json":        "e1abf64aae648767",
	"single/simprofile.json":       "d40b5edbe9e964d3",
	"single/simprofile.csv":        "18515d6780ec1e46",
	"single/simprofile.prom":       "7d190031a7aec62d",
	"single/simprofile.trace.json": "70b23292dec08fef",
	"aggregate/simprofile.json":    "6ce6caedcfce1f85",
	"aggregate/simprofile.csv":     "62215669299dce9a",
	"aggregate/simprofile.prom":    "12c8da5e2d27596e",
}

const pinLabel = "pin"

func pinConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 6000
	cfg.Secure, cfg.SUF, cfg.Prefetcher, cfg.Mode = true, true, "berti", sim.ModeTimelySecure
	return cfg
}

// pinnedMix is the observed 4-core run behind the mix/* pins.
type pinnedMix struct {
	res      *multicore.Result
	samplers []*probe.IntervalSampler
	tracer   *probe.Tracer
	profile  *observatory.Profile
}

// pinned caches the mix: it is deterministic and the tests only read it.
var pinned struct {
	once sync.Once
	mix  pinnedMix
	err  error
}

func runPinnedMix(t *testing.T) pinnedMix {
	t.Helper()
	pinned.once.Do(func() { pinned.mix, pinned.err = newPinnedMix() })
	if pinned.err != nil {
		t.Fatal(pinned.err)
	}
	return pinned.mix
}

func newPinnedMix() (pinnedMix, error) {
	cfg := multicore.DefaultConfig()
	cfg.Single = pinConfig()
	cfg.Seed = 1
	m := pinnedMix{tracer: probe.NewTracer(32, 1<<13), profile: observatory.NewProfile()}
	var mix []trace.Source
	var windows []probe.WindowObserver
	for _, name := range []string{"605.mcf-1554B", "603.bwa-2931B", "654.roms-1007B", "bfs-3B"} {
		tr, err := workload.Get(name, workload.Params{Instrs: 8000, Seed: 1})
		if err != nil {
			return m, err
		}
		mix = append(mix, trace.NewSource(tr))
		s := probe.NewIntervalSampler(64)
		m.samplers = append(m.samplers, s)
		windows = append(windows, s)
	}
	var err error
	m.res, err = multicore.RunProbed(cfg, mix, multicore.Probes{
		Interference:   true,
		Windows:        windows,
		SharedObserver: m.tracer,
		Profile:        m.profile,
	})
	return m, err
}

type pinArtifact struct {
	name  string
	write func(io.Writer) error
}

func profileArtifacts(dir string, p *observatory.Profile) []pinArtifact {
	return []pinArtifact{
		{dir + "/simprofile.json", p.WriteJSON},
		{dir + "/simprofile.csv", p.WriteCSV},
		{dir + "/simprofile.prom", p.WritePrometheus},
		{dir + "/simprofile.trace.json", func(w io.Writer) error { return p.WriteChromeTrace(w, pinLabel) }},
	}
}

// pinnedArtifacts runs both pinned configurations and renders every
// artifact.
func pinnedArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	mix := runPinnedMix(t)
	var arts []pinArtifact
	for i, s := range mix.samplers {
		s, base := s, fmt.Sprintf("mix/core%d", i)
		arts = append(arts,
			pinArtifact{base + ".series.json", func(w io.Writer) error { return s.WriteJSON(w, pinLabel, mix.res.PerCore[i].TraceName) }},
			pinArtifact{base + ".series.csv", s.WriteCSV})
	}
	snap := mix.res.Interference
	arts = append(arts, pinArtifact{"mix/shared.trace.json", func(w io.Writer) error { return mix.tracer.WriteChromeTrace(w, pinLabel) }})
	arts = append(arts, profileArtifacts("mix", mix.profile)...)
	arts = append(arts,
		pinArtifact{"mix/interference.json", snap.WriteJSON},
		pinArtifact{"mix/interference.csv", snap.WriteCSV},
		pinArtifact{"mix/interference.prom", snap.WritePrometheus},
		pinArtifact{"mix/interference.trace.json", snap.WriteChromeTrace})

	tr, err := workload.Get("bfs-3B", workload.Params{Instrs: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampler := probe.NewIntervalSampler(64)
	tracer := probe.NewTracer(32, 1<<13)
	prof := observatory.NewProfile()
	res, err := sim.RunProbed(pinConfig(), trace.NewSource(tr), sim.Probes{Observer: tracer, Window: sampler, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	arts = append(arts,
		pinArtifact{"single/bfs.series.json", func(w io.Writer) error { return sampler.WriteJSON(w, pinLabel, res.TraceName) }},
		pinArtifact{"single/bfs.series.csv", sampler.WriteCSV},
		pinArtifact{"single/bfs.trace.json", func(w io.Writer) error { return tracer.WriteChromeTrace(w, pinLabel) }})
	arts = append(arts, profileArtifacts("single", prof)...)

	agg := observatory.NewAggregate()
	agg.Add(prof)
	agg.Add(mix.profile)
	aggSnap := agg.Snapshot()
	arts = append(arts, profileArtifacts("aggregate", &aggSnap)[:3]...)

	out := make(map[string][]byte, len(arts))
	for _, a := range arts {
		var b bytes.Buffer
		if err := a.write(&b); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		out[a.name] = b.Bytes()
	}
	return out
}

// TestPinnedExportArtifacts pins the bytes of every observer export.
func TestPinnedExportArtifacts(t *testing.T) {
	got := pinnedArtifacts(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := exportPins[name]
		h := fmt.Sprintf("%016x", observatory.HashBytes(got[name]))
		if !ok {
			t.Errorf("%s: no pin (digest %s)", name, h)
		} else if h != want {
			t.Errorf("%s: digest %s, want %s (%d bytes)", name, h, want, len(got[name]))
		}
	}
	if len(got) != len(exportPins) {
		t.Errorf("%d artifacts, %d pins", len(got), len(exportPins))
	}
}

type counterEvent struct {
	Phase string `json:"ph"`
	TS    uint64 `json:"ts"`
	PID   int    `json:"pid"`
}

// counterEvents parses a Chrome trace and returns its counter events.
func counterEvents(t *testing.T, raw []byte) []counterEvent {
	t.Helper()
	var doc struct {
		TraceEvents []counterEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var out []counterEvent
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "C" {
			out = append(out, ev)
		}
	}
	return out
}

// TestInterferenceTraceAbsoluteTime: the interference counter tracks
// use the absolute-cycle time base of the lifecycle tracer and the
// profile tracks. The last window is recorded at run end, so the last
// counter event sits at Snapshot.Cycle.
func TestInterferenceTraceAbsoluteTime(t *testing.T) {
	mix := runPinnedMix(t)
	s := mix.res.Interference
	var b bytes.Buffer
	if err := s.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	evs := counterEvents(t, b.Bytes())
	if len(evs) == 0 {
		t.Fatal("no counter events")
	}
	if last := evs[len(evs)-1].TS; last != s.Cycle {
		t.Errorf("last counter event at ts %d, want Snapshot.Cycle %d", last, s.Cycle)
	}
}

// TestMulticoreProfileTracks: the merged multicore profile keeps every
// core's counter track, one Perfetto process per core.
func TestMulticoreProfileTracks(t *testing.T) {
	mix := runPinnedMix(t)
	var b bytes.Buffer
	if err := mix.profile.WriteChromeTrace(&b, pinLabel); err != nil {
		t.Fatal(err)
	}
	perCore := map[int]int{}
	for _, ev := range counterEvents(t, b.Bytes()) {
		perCore[ev.PID-1]++
	}
	for c := range mix.samplers {
		if perCore[c] == 0 {
			t.Errorf("core %d: no counter events (per-core counts %v)", c, perCore)
		}
	}
}

// TestArtifactFileSets writes each observer's named file set through
// export.WriteFiles and checks the names and that the bytes on disk are
// the pinned bytes.
func TestArtifactFileSets(t *testing.T) {
	mix := runPinnedMix(t)
	pins := pinnedArtifacts(t)
	dir := t.TempDir()
	name := mix.res.PerCore[1].TraceName
	sets := []struct {
		files []export.File
		pins  map[string]string // file name -> pinned artifact, "" = not pinned
	}{
		{probe.RunFiles(name, pinLabel, mix.samplers[1], mix.tracer), map[string]string{
			name + "__pin.series.json": "mix/core1.series.json",
			name + "__pin.series.csv":  "mix/core1.series.csv",
			name + "__pin.trace.json":  "",
		}},
		{mix.profile.Files("simprofile", pinLabel), map[string]string{
			"simprofile.json":       "mix/simprofile.json",
			"simprofile.csv":        "mix/simprofile.csv",
			"simprofile.trace.json": "mix/simprofile.trace.json",
		}},
		{mix.res.Interference.Files("mc04__x"), map[string]string{
			"mc04__x.interference.json":       "mix/interference.json",
			"mc04__x.interference.csv":        "mix/interference.csv",
			"mc04__x.interference.prom":       "mix/interference.prom",
			"mc04__x.interference.trace.json": "mix/interference.trace.json",
		}},
	}
	for _, set := range sets {
		if err := export.WriteFiles(dir, set.files...); err != nil {
			t.Fatal(err)
		}
		if len(set.files) != len(set.pins) {
			t.Errorf("%d files, want %d", len(set.files), len(set.pins))
		}
		for _, f := range set.files {
			pin, ok := set.pins[f.Name]
			if !ok {
				t.Errorf("unexpected file %s", f.Name)
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, f.Name))
			if err != nil {
				t.Fatal(err)
			}
			if pin != "" && !bytes.Equal(raw, pins[pin]) {
				t.Errorf("%s differs from the pinned %s", f.Name, pin)
			}
		}
	}
}
