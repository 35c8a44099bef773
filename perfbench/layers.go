package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"secpref/internal/observatory"
	"secpref/internal/trace"
)

// span is one interval of the traced run, recorded from the
// benchmark's own files around a call into one layer. Parent is the
// index of the enclosing span, -1 at the top. Estimated spans carry a
// duration derived from sampled ticks or scaled thread time rather
// than a clock interval; Count aggregates calls (ReadBatch totals).
type span struct {
	Name      string `json:"name"`
	Parent    int    `json:"parent"`
	StartNs   int64  `json:"start_ns"`
	DurNs     int64  `json:"dur_ns"`
	Count     uint64 `json:"count,omitempty"`
	Estimated bool   `json:"estimated,omitempty"`
}

// recorder keeps the traced run's spans in memory; they are written out
// when the run ends. A nil recorder records nothing, which is how the
// untraced runs call the same code.
type recorder struct {
	t0    time.Time
	spans []span
	// calib is the calibrated share of a time.Now pair that falls inside
	// the interval it measures; it is subtracted from every sampled tick
	// and every timed ReadBatch.
	calib time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), calib: calibrateClock()}
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, StartNs: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.DurNs = int64(time.Since(r.t0)) - s.StartNs
}

// add records a derived span under parent, starting where parent does.
func (r *recorder) add(name string, parent int, d time.Duration, count uint64, estimated bool) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, StartNs: r.spans[parent].StartNs,
		DurNs: int64(d), Count: count, Estimated: estimated})
	return len(r.spans) - 1
}

// rankLayers maps the single-core engine's attribution ranks to the
// layer whose Tick each rank runs.
var rankLayers = map[string]string{
	"core": "cpu.tick", "gm": "ghostminion.tick", "l1d": "cache.l1d.tick",
	"l2": "cache.l2.tick", "llc": "cache.llc.tick", "dram": "dram.tick",
}

// addRankSpans records each rank's estimated Tick time under the run
// span: the calibrated mean of its wall-timed samples times its exact
// tick count. It returns the core rank's span.
func (r *recorder) addRankSpans(p *observatory.Profile, run int) (core int) {
	for i := range p.Ranks {
		rp := &p.Ranks[i]
		var est time.Duration
		if rp.WallSamples > 0 {
			if mean := float64(rp.WallNs)/float64(rp.WallSamples) - float64(r.calib); mean > 0 {
				est = time.Duration(mean * float64(rp.Ticks))
			}
		}
		id := r.add(rankLayers[rp.Name], run, est, 0, true)
		if rp.Name == "core" {
			core = id
		}
	}
	return core
}

// calibrateClock measures how much of a back-to-back time.Now /
// time.Since pair lands inside the interval it measures. Sampled ticks
// are timed with such a pair, so each sample overstates the tick by
// this much.
func calibrateClock() time.Duration {
	const n = 200_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		sum += time.Since(s)
	}
	return sum / n
}

// timedSource wraps a trace source and times every ReadBatch call: the
// trace layer's cost as the core's dispatch stage sees it.
type timedSource struct {
	trace.BatchSource
	ns      int64
	batches uint64
}

func (s *timedSource) ReadBatch(dst []trace.Instr) int {
	t := time.Now()
	n := s.BatchSource.ReadBatch(dst)
	s.ns += int64(time.Since(t))
	s.batches++
	return n
}

// elapsed is the calibrated time spent in ReadBatch.
func (s *timedSource) elapsed(calib time.Duration) time.Duration {
	if d := time.Duration(s.ns) - time.Duration(s.batches)*calib; d > 0 {
		return d
	}
	return 0
}

// glueSpans are the benchmark's own spans. Their self time is the
// benchmark's bookkeeping (digests, counters), not a layer of the
// program, so it is the part of the traced wall time the layers leave
// unattributed.
var glueSpans = map[string]bool{"setup": true, "round": true}

// selfTimes returns each span name's total self time (duration minus
// the durations of its direct children) over spans[from:], which must
// hold whole subtrees.
func selfTimes(spans []span, from int) map[string]time.Duration {
	child := make([]int64, len(spans))
	for i := from; i < len(spans); i++ {
		if p := spans[i].Parent; p >= from {
			child[p] += spans[i].DurNs
		}
	}
	out := map[string]time.Duration{}
	for i := from; i < len(spans); i++ {
		out[spans[i].Name] += time.Duration(spans[i].DurNs - child[i])
	}
	return out
}

// totals returns each span name's summed duration and call count over
// spans[from:].
func totals(spans []span, from int) (map[string]time.Duration, map[string]uint64) {
	dur, count := map[string]time.Duration{}, map[string]uint64{}
	for _, s := range spans[from:] {
		dur[s.Name] += time.Duration(s.DurNs)
		count[s.Name] += s.Count
	}
	return dur, count
}

// layerTable is the traced run's wall time split by layer.
type layerTable struct {
	wall       time.Duration // summed top-level spans: set-up and traced rounds
	self       map[string]time.Duration
	attributed time.Duration // self time of every layer, glue excluded
}

func buildTable(spans []span) layerTable {
	t := layerTable{self: selfTimes(spans, 0)}
	for _, s := range spans {
		if s.Parent < 0 {
			t.wall += time.Duration(s.DurNs)
		}
	}
	for name, d := range t.self {
		if !glueSpans[name] && d > 0 {
			t.attributed += d
		}
	}
	return t
}

// closure is the attributed share of the traced wall time. Negative
// self time (sampled ticks overstating their run call) counts as zero,
// so under- and over-attribution both move it away from 1.
func (t layerTable) closure() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.attributed) / float64(t.wall)
}

// closureTolerance is how far the layers may miss the traced wall time
// (ROADMAP item 1).
const closureTolerance = 0.05

func (t layerTable) write(w io.Writer) {
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
	fmt.Fprintf(w, "layer table: self time of each layer over %.3fs traced wall time\n", t.wall.Seconds())
	for _, n := range names {
		label := n
		if glueSpans[n] {
			label = n + " (benchmark, unattributed)"
		}
		fmt.Fprintf(w, "  %-40s %9.4fs %6.2f%%\n", label, t.self[n].Seconds(), 100*float64(t.self[n])/float64(t.wall))
	}
	fmt.Fprintf(w, "  %-40s %9.4fs %6.2f%%\n", "layers total", t.attributed.Seconds(), 100*t.closure())
}

// writeSpans writes every recorded span as JSON.
func writeSpans(path string, meta map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}{meta, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
