// Snapshot assembly and the export quartet: JSON, CSV, Prometheus
// text format (probe.PrometheusWriter), and Chrome/Perfetto counter
// tracks, each filling the internal/export model. The Tracker
// double-buffers: the engine goroutine publishes a complete copy at
// window boundaries, exports read the last published copy under the
// mutex — a live /metrics scrape never touches live attribution state.
package interference

import (
	"fmt"
	"io"
	"strconv"

	"secpref/internal/export"
	"secpref/internal/mem"
)

// CellRow is one exported (aggressor, victim) matrix entry. Evictions
// is indexed by Class (ClassNames order).
type CellRow struct {
	Aggressor int                `json:"aggressor"`
	Victim    int                `json:"victim"`
	Evictions [NumClasses]uint64 `json:"evictions"`
	Inflicted uint64             `json:"inflicted"`
	Pollution uint64             `json:"pollution"`
}

// Total sums the eviction classes.
func (c CellRow) Total() uint64 {
	var n uint64
	for _, v := range c.Evictions {
		n += v
	}
	return n
}

// CoreRow is one core's aggregate shared-domain footprint.
type CoreRow struct {
	Core int `json:"core"`
	// OccLines is the core's resident LLC lines at snapshot time;
	// OccShare normalizes by total LLC capacity.
	OccLines uint64  `json:"occ_lines"`
	OccShare float64 `json:"occ_share"`
	// Evictions caused (as aggressor) and suffered (as victim), and the
	// inflicted/pollution misses suffered as victim.
	EvCaused   uint64 `json:"ev_caused"`
	EvSuffered uint64 `json:"ev_suffered"`
	Inflicted  uint64 `json:"inflicted"`
	Pollution  uint64 `json:"pollution"`
	// Shared-DRAM activity attributed to the core.
	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`
	RowHits    uint64 `json:"row_hits"`
	RowMisses  uint64 `json:"row_misses"`
	// Link traffic by provenance class (requests entering the shared
	// domain over this core's link, measured-phase baseline-adjusted).
	Link [NumClasses]uint64 `json:"link"`
}

// WindowRow is one core's cumulative timeline sample at a (barrier-
// quantized) window boundary. Cycle is relative to the measured-phase
// start; consecutive rows of one core difference into rates.
type WindowRow struct {
	Cycle        uint64 `json:"cycle"`
	Core         int    `json:"core"`
	OccLines     uint64 `json:"occ_lines"`
	EvCaused     uint64 `json:"ev_caused"`
	EvSuffered   uint64 `json:"ev_suffered"`
	Inflicted    uint64 `json:"inflicted"`
	Pollution    uint64 `json:"pollution"`
	DRAMReads    uint64 `json:"dram_reads"`
	DRAMWrites   uint64 `json:"dram_writes"`
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	LinkDemand   uint64 `json:"link_demand"`
	LinkPrefetch uint64 `json:"link_prefetch"`
	LinkSUF      uint64 `json:"link_suf"`
	LinkMaint    uint64 `json:"link_maintenance"`
}

// Snapshot is a self-contained copy of the observatory's state, safe to
// export after (or during, via the published buffer) a run. Cycle is
// absolute; Start is the absolute cycle the window timeline counts
// from (the measured-phase start), so a window's absolute cycle is
// Start + its Cycle.
type Snapshot struct {
	EngineVersion string      `json:"engine_version"`
	Cores         int         `json:"cores"`
	Sets          int         `json:"sets"`
	Ways          int         `json:"ways"`
	Cycle         uint64      `json:"cycle"`
	Start         uint64      `json:"-"`
	Cells         []CellRow   `json:"cells"`
	PerCore       []CoreRow   `json:"per_core"`
	Windows       []WindowRow `json:"windows"`
}

// snapshot assembles a Snapshot from live state. Engine goroutine
// only.
func (t *Tracker) snapshot(now mem.Cycle) *Snapshot {
	s := &Snapshot{
		EngineVersion: t.EngineVersion,
		Cores:         t.cores,
		Sets:          t.sets,
		Ways:          t.ways,
		Cycle:         uint64(now),
		Start:         uint64(t.winStart),
		Cells:         make([]CellRow, 0, t.cores*t.cores),
		PerCore:       make([]CoreRow, t.cores),
		Windows:       append([]WindowRow(nil), t.windows...),
	}
	for a := 0; a < t.cores; a++ {
		for v := 0; v < t.cores; v++ {
			c := t.cells[a*t.cores+v]
			s.Cells = append(s.Cells, CellRow{
				Aggressor: a, Victim: v,
				Evictions: c.evictions,
				Inflicted: c.inflicted,
				Pollution: c.pollution,
			})
		}
	}
	capacity := float64(t.sets * t.ways)
	for c := 0; c < t.cores; c++ {
		s.PerCore[c] = CoreRow{
			Core:       c,
			OccLines:   t.occTot[c],
			OccShare:   float64(t.occTot[c]) / capacity,
			EvCaused:   t.causedTot[c],
			EvSuffered: t.sufferedTot[c],
			Inflicted:  t.inflVicTot[c],
			Pollution:  t.pollVicTot[c],
			DRAMReads:  t.dram[c].reads,
			DRAMWrites: t.dram[c].writes,
			RowHits:    t.dram[c].rowHits,
			RowMisses:  t.dram[c].rowMisses,
			Link:       t.linkDelta(c),
		}
	}
	return s
}

// publish copies the live state into the mutex-guarded export buffer.
// Engine goroutine only; called at window boundaries and run end.
func (t *Tracker) publish(now mem.Cycle) {
	s := t.snapshot(now)
	t.mu.Lock()
	t.pub = s
	t.mu.Unlock()
}

// Snapshot returns the last published snapshot (nil before the first
// window boundary or Finish). Safe from any goroutine.
func (t *Tracker) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pub
}

// WriteJSON writes the snapshot as one indented JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error { return export.WriteJSON(w, s) }

// WriteCSV writes the attribution matrix, one row per (aggressor,
// victim) cell.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	t := export.Table{Header: append(append([]string{"aggressor", "victim"}, ClassNames[:]...), "total", "inflicted", "pollution")}
	for _, c := range s.Cells {
		row := []string{strconv.Itoa(c.Aggressor), strconv.Itoa(c.Victim)}
		for _, v := range c.Evictions {
			row = append(row, u(v))
		}
		t.Rows = append(t.Rows, append(row, u(c.Total()), u(c.Inflicted), u(c.Pollution)))
	}
	return t.WriteCSV(w)
}

func u(v uint64) string { return strconv.FormatUint(v, 10) }

// WritePrometheus implements probe.PrometheusWriter: the matrix as
// labeled counters, per-core footprint as gauges. Label cardinality is
// cores² for the matrix series — fine at the 4–64 cores this simulator
// runs. Zero matrix and link samples are left out.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	fam := func(name, typ, help string) export.Family {
		return export.Family{Name: "secpref_interference_" + name, Type: typ, Help: help}
	}
	add := func(f *export.Family, v uint64, labels ...string) {
		f.Samples = append(f.Samples, export.Sample{Labels: labels, Value: float64(v)})
	}
	ev := fam("evictions_total", "counter", "Cross-core LLC evictions by aggressor provenance.")
	infl := fam("inflicted_total", "counter", "Victim demand misses on lines the aggressor evicted.")
	poll := fam("pollution_total", "counter", "Inflicted misses whose evicting fill was a prefetch.")
	for _, c := range s.Cells {
		a, v := strconv.Itoa(c.Aggressor), strconv.Itoa(c.Victim)
		for cl, n := range c.Evictions {
			if n != 0 {
				add(&ev, n, "aggressor", a, "victim", v, "class", ClassNames[cl])
			}
		}
		if c.Inflicted != 0 {
			add(&infl, c.Inflicted, "aggressor", a, "victim", v)
		}
		if c.Pollution != 0 {
			add(&poll, c.Pollution, "aggressor", a, "victim", v)
		}
	}
	occ := fam("occupancy_lines", "gauge", "Per-core resident shared-LLC lines.")
	reads := fam("dram_reads_total", "counter", "Per-core shared-DRAM reads.")
	writes := fam("dram_writes_total", "counter", "Per-core shared-DRAM writes (charged to the causing core).")
	link := fam("link_requests_total", "counter", "Per-core shared-link requests by provenance class.")
	for _, c := range s.PerCore {
		core := strconv.Itoa(c.Core)
		add(&occ, c.OccLines, "core", core)
		add(&reads, c.DRAMReads, "core", core)
		add(&writes, c.DRAMWrites, "core", core)
		for cl, n := range c.Link {
			if n != 0 {
				add(&link, n, "core", core, "class", ClassNames[cl])
			}
		}
	}
	fams := []export.Family{ev, infl, poll, occ, reads, writes, link}
	if s.EngineVersion != "" {
		info := fam("engine_info", "gauge", "Engine generation the snapshot was recorded under.")
		add(&info, 1, "version", s.EngineVersion)
		fams = append(fams, info)
	}
	return export.WritePrometheus(w, fams...)
}

// WritePrometheus implements probe.PrometheusWriter on the Tracker by
// exporting the last published snapshot (nothing before the first
// publish). Safe to hang off a live /metrics handler while a run is in
// flight.
func (t *Tracker) WritePrometheus(w io.Writer) error {
	s := t.Snapshot()
	if s == nil {
		return nil
	}
	return s.WritePrometheus(w)
}

// WriteChromeTrace exports the windowed timeline as per-core Perfetto
// counter tracks (load with ui.perfetto.dev): process c+1, named, is
// core c. Timestamps are absolute cycles, the time base of the
// lifecycle tracer and the profile tracks.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	t := export.Trace{EngineVersion: s.EngineVersion}
	for c := 0; c < s.Cores; c++ {
		t.Process(c+1, fmt.Sprintf("core%d interference", c))
	}
	for _, row := range s.Windows {
		pid, ts := row.Core+1, s.Start+row.Cycle
		t.Counter(pid, "llc_occupancy", ts, map[string]any{"lines": row.OccLines})
		t.Counter(pid, "evictions", ts, map[string]any{"caused": row.EvCaused, "suffered": row.EvSuffered})
		t.Counter(pid, "inflation", ts, map[string]any{"inflicted": row.Inflicted, "pollution": row.Pollution})
		t.Counter(pid, "dram", ts, map[string]any{"reads": row.DRAMReads, "writes": row.DRAMWrites})
		t.Counter(pid, "link", ts, map[string]any{
			"demand": row.LinkDemand, "prefetch": row.LinkPrefetch,
			"suf": row.LinkSUF, "maintenance": row.LinkMaint,
		})
	}
	return t.WriteChrome(w)
}

// Files names the snapshot's artifacts: base.interference.json, .csv,
// .prom and .trace.json.
func (s *Snapshot) Files(base string) []export.File {
	base += ".interference"
	return []export.File{
		{Name: base + ".json", Write: s.WriteJSON},
		{Name: base + ".csv", Write: s.WriteCSV},
		{Name: base + ".prom", Write: s.WritePrometheus},
		{Name: base + ".trace.json", Write: s.WriteChromeTrace},
	}
}
