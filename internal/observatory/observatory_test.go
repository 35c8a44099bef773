package observatory

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"secpref/internal/mem"
)

func TestDigestOrderSensitive(t *testing.T) {
	a := NewDigest().Word(1).Word(2).Sum()
	b := NewDigest().Word(2).Word(1).Sum()
	if a == b {
		t.Error("digest is order-insensitive")
	}
	if NewDigest().Word(1).Sum() == NewDigest().Word(1).Word(0).Sum() {
		t.Error("appending a zero word should change the digest")
	}
}

func TestHashBytes(t *testing.T) {
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Error("distinct inputs collide")
	}
	if HashBytes(nil) != HashBytes([]byte{}) {
		t.Error("nil and empty must hash alike")
	}
}

func TestProfileCounters(t *testing.T) {
	p := NewProfile("core", "dram")
	p.Advance(false)
	p.Advance(true)
	p.Gap(1)
	p.Gap(300_000) // overflow bucket
	p.Visit(0, true, true, false, false)
	p.Visit(0, true, false, true, true)
	p.Visit(1, false, false, false, false)
	p.Rearm(0, true)
	p.Rearm(1, false)

	if p.Advances != 2 || p.ClampedAdvances != 1 || p.VisitedCycles != 2 {
		t.Errorf("advance counters: %+v", p)
	}
	if p.SkippedCycles != 300_001 {
		t.Errorf("skipped cycles = %d", p.SkippedCycles)
	}
	if p.GapHist[0] != 1 || p.GapHist[gapBuckets-1] != 1 {
		t.Errorf("gap histogram: %v", p.GapHist)
	}
	core := p.Ranks[0]
	if core.Ticks != 2 || core.DueTicks != 1 || core.WakeTicks != 1 || core.VersionTicks != 1 || core.Rearmed != 1 {
		t.Errorf("core rank: %+v", core)
	}
	if p.Ranks[1].Integrated != 1 || p.Ranks[1].KeptArm != 1 {
		t.Errorf("dram rank: %+v", p.Ranks[1])
	}
	if eff := p.SkipEfficiency(); eff < 0.99 {
		t.Errorf("skip efficiency = %f", eff)
	}
}

func TestProfileMergeAndAggregate(t *testing.T) {
	a := NewProfile("core")
	a.EngineVersion = "ev-test"
	a.Advance(false)
	a.Visit(0, true, true, false, false)
	b := NewProfile("core")
	b.Advance(false)
	b.Gap(4)
	b.Visit(0, false, false, false, false)

	agg := NewAggregate()
	agg.Add(a)
	agg.Add(b)
	s := agg.Snapshot()
	if s.EngineVersion != "ev-test" {
		t.Errorf("merge lost engine version: %q", s.EngineVersion)
	}
	if s.Advances != 2 || s.SkippedCycles != 4 {
		t.Errorf("merged totals: %+v", s)
	}
	if s.Ranks[0].Ticks != 1 || s.Ranks[0].Integrated != 1 {
		t.Errorf("merged rank: %+v", s.Ranks[0])
	}
}

func TestProfileExports(t *testing.T) {
	p := NewProfile("core", "dram")
	p.EngineVersion = "ev-test"
	p.Advance(false)
	p.Gap(16)
	p.Visit(0, true, true, false, false)
	p.TrackSample(100)
	p.TrackSample(100) // same-cycle dedupe
	p.TrackSample(200)
	if len(p.Track) != 2 {
		t.Errorf("track samples = %d, want 2", len(p.Track))
	}

	var js bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(js.Bytes(), &env); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	if env["engine_version"] != "ev-test" {
		t.Errorf("JSON missing engine version: %v", env)
	}

	var csv bytes.Buffer
	if err := p.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 3 { // header + 2 ranks
		t.Errorf("CSV lines = %d: %q", lines, csv.String())
	}

	var prom bytes.Buffer
	if err := p.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"secpref_sim_advances_total 1",
		"secpref_sim_skipped_cycles_total 16",
		`secpref_sim_rank_ticks_total{rank="core"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export missing %q", want)
		}
	}

	var tr bytes.Buffer
	if err := p.WriteChromeTrace(&tr, "test"); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(tr.Bytes(), &tf); err != nil {
		t.Fatalf("Chrome trace invalid: %v", err)
	}
	if evs, ok := tf["traceEvents"].([]any); !ok || len(evs) != 4 { // 2 points × 2 counters
		t.Errorf("trace events = %v", tf["traceEvents"])
	}
}

func TestRecorderAndFirstDivergence(t *testing.T) {
	mk := func(points ...DigestPoint) *Recorder {
		r := NewRecorder()
		for _, p := range points {
			r.Digest(p.Cycle, p.Comps)
		}
		return r
	}
	a := mk(DigestPoint{100, []uint64{1, 2}}, DigestPoint{200, []uint64{3, 4}})

	if div, ok := FirstDivergence(a, mk(DigestPoint{100, []uint64{1, 2}}, DigestPoint{200, []uint64{3, 4}})); ok {
		t.Errorf("identical streams diverge: %v", div)
	}
	div, ok := FirstDivergence(a, mk(DigestPoint{100, []uint64{1, 2}}, DigestPoint{200, []uint64{3, 9}}))
	if !ok || div.Cycle != 200 || div.Component != 1 || div.A != 4 || div.B != 9 {
		t.Errorf("component divergence: %v ok=%v", div, ok)
	}
	div, ok = FirstDivergence(a, mk(DigestPoint{100, []uint64{1, 2}}, DigestPoint{250, []uint64{3, 4}}))
	if !ok || div.Component != -1 || div.Cycle != 200 {
		t.Errorf("cycle mismatch: %v ok=%v", div, ok)
	}
	div, ok = FirstDivergence(a, mk(DigestPoint{100, []uint64{1, 2}}))
	if !ok || div.Component != -1 || div.Cycle != 200 {
		t.Errorf("length mismatch: %v ok=%v", div, ok)
	}
	// The sink contract: the slice is reused by callers; Digest must copy.
	shared := []uint64{7}
	r := NewRecorder()
	r.Digest(1, shared)
	shared[0] = 9
	if r.Points[0].Comps[0] != 7 {
		t.Error("recorder aliased the caller's slice")
	}
}

// scriptedEngine digests as a pure function of its clock — synthetic
// engines for bisector unit tests.
type scriptedEngine struct {
	now  mem.Cycle
	end  mem.Cycle
	comp func(mem.Cycle) []uint64
}

func (e *scriptedEngine) RunToCycle(t mem.Cycle) (mem.Cycle, bool, error) {
	if t > e.end {
		t = e.end
	}
	if t > e.now {
		e.now = t
	}
	return e.now, e.now >= e.end, nil
}

func (e *scriptedEngine) StateDigests(dst []uint64) []uint64 {
	return append(dst, e.comp(e.now)...)
}

func TestBisectScripted(t *testing.T) {
	clean := func(mem.Cycle) []uint64 { return []uint64{1, 2, 3} }
	const fault = mem.Cycle(777)
	faulty := func(c mem.Cycle) []uint64 {
		v := []uint64{1, 2, 3}
		if c >= fault {
			v[1] = 99
		}
		return v
	}
	fresh := func() (DigestEngine, DigestEngine, error) {
		return &scriptedEngine{end: 100_000, comp: clean},
			&scriptedEngine{end: 100_000, comp: faulty}, nil
	}
	div, err := Bisect(fresh, BisectOptions{Step: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if div == nil || div.Cycle != fault || div.Component != 1 || div.A != 2 || div.B != 99 {
		t.Errorf("bisect = %v, want cycle %d component 1", div, fault)
	}

	// Clean pair terminates at workload end with no divergence.
	cleanFresh := func() (DigestEngine, DigestEngine, error) {
		return &scriptedEngine{end: 10_000, comp: clean},
			&scriptedEngine{end: 10_000, comp: clean}, nil
	}
	div, err = Bisect(cleanFresh, BisectOptions{Step: 4096})
	if err != nil || div != nil {
		t.Errorf("clean pair: div=%v err=%v", div, err)
	}

	// Engines whose clocks disagree are a structural divergence.
	lame := func() (DigestEngine, DigestEngine, error) {
		return &scriptedEngine{end: 100_000, comp: clean},
			&scriptedEngine{end: 500, comp: clean}, nil
	}
	div, err = Bisect(lame, BisectOptions{Step: 4096, Limit: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if div == nil || div.Component != -1 {
		t.Errorf("clock divergence not structural: %v", div)
	}
}

// scriptedRun is a Run over a scriptedEngine: its Result records the
// engine's digests every 1024 cycles up to end and returns res and err.
func scriptedRun(end mem.Cycle, comp func(mem.Cycle) []uint64, res any, err error) Run {
	return Run{
		Result: func(rec *Recorder) (any, error) {
			rec.Interval = 1024
			for c := mem.Cycle(1024); c <= end; c += 1024 {
				rec.Digest(c, comp(c))
			}
			return res, err
		},
		Engine: func() (DigestEngine, error) { return &scriptedEngine{end: end, comp: comp}, nil },
	}
}

func TestCompareScripted(t *testing.T) {
	clean := func(mem.Cycle) []uint64 { return []uint64{1, 2, 3} }
	faulty := func(c mem.Cycle) []uint64 {
		if c >= 3000 {
			return []uint64{1, 99, 3}
		}
		return clean(c)
	}
	names := []string{"core", "l1d", "l2"}
	ref := scriptedRun(10_000, clean, 42, nil)
	if err := Compare(ref, []Run{scriptedRun(10_000, clean, 42, nil)}, names); err != nil {
		t.Fatalf("equal runs: %v", err)
	}
	err := Compare(ref, []Run{scriptedRun(10_000, clean, 42, nil), scriptedRun(10_000, faulty, 42, nil)}, names)
	if want := "run 1 diverges from the reference at cycle 3000 in l1d"; err == nil || err.Error() != want {
		t.Errorf("divergent run: got %v, want %q", err, want)
	}
	if err := Compare(ref, []Run{scriptedRun(10_000, clean, 43, nil)}, names); err == nil {
		t.Error("a result that differs at equal digests passed")
	}
	boom := errors.New("boom")
	if err := Compare(scriptedRun(10_000, clean, nil, boom), nil, names); !errors.Is(err, boom) {
		t.Errorf("failing reference: got %v, want it wrapped", err)
	}
	if err := Compare(ref, []Run{scriptedRun(10_000, clean, 42, boom)}, names); err == nil || errors.Is(err, boom) {
		t.Errorf("failing run: got %v, want it reported but not wrapped", err)
	}
}
