package probe

import (
	"io"
	"strconv"

	"secpref/internal/export"
)

// IntervalSampler records the cumulative Sample the driver hands it at
// every window boundary and derives a per-interval time series: IPC,
// MPKI, miss latency, MSHR occupancy, prefetch accuracy/lateness, and
// SUF drop rate per window. It implements WindowObserver only — it
// costs the hot paths nothing between boundaries.
//
// The sampler is not safe for concurrent use; attach one per machine.
type IntervalSampler struct {
	samples []Sample
}

// NewIntervalSampler returns a sampler with capacity for the expected
// number of windows preallocated (growth beyond it only amortizes).
func NewIntervalSampler(expectWindows int) *IntervalSampler {
	if expectWindows < 16 {
		expectWindows = 16
	}
	return &IntervalSampler{samples: make([]Sample, 0, expectWindows)}
}

// Window implements WindowObserver.
func (s *IntervalSampler) Window(sm Sample) { s.samples = append(s.samples, sm) }

// Samples returns the recorded cumulative snapshots in boundary order.
func (s *IntervalSampler) Samples() []Sample { return s.samples }

// Len returns the number of recorded windows.
func (s *IntervalSampler) Len() int { return len(s.samples) }

// Row is one derived time-series interval: the deltas between two
// consecutive cumulative samples, expressed as the rates the paper's
// figures are built from.
type Row struct {
	// Cycle and Instructions are the window's end boundary (cumulative).
	Cycle        uint64 `json:"cycle"`
	Instructions uint64 `json:"instructions"`

	IPC  float64 `json:"ipc"`
	MPKI float64 `json:"mpki"`
	// L2MPKI is the next level's demand-miss rate.
	L2MPKI float64 `json:"l2_mpki"`
	// MissLat is the mean load-observed miss latency over the window.
	MissLat float64 `json:"miss_lat"`
	// MSHROcc is mean occupied home-level MSHR entries per cycle;
	// MSHRFullFrac the fraction of window cycles with none free.
	MSHROcc      float64 `json:"mshr_occ"`
	MSHRFullFrac float64 `json:"mshr_full_frac"`
	// PrefAccuracy is useful/filled over the window; PrefLatePKI the
	// late-prefetch rate; PrefIssuedPKI the issue rate.
	PrefAccuracy  float64 `json:"pref_accuracy"`
	PrefLatePKI   float64 `json:"pref_late_pki"`
	PrefIssuedPKI float64 `json:"pref_issued_pki"`
	// SUFDropPKI is the SUF filtering rate; CommitGMHitRate the
	// fraction of commits served by the GM.
	SUFDropPKI      float64 `json:"suf_drop_pki"`
	CommitGMHitRate float64 `json:"commit_gm_hit_rate"`
	DRAMReadPKI     float64 `json:"dram_read_pki"`
}

// ratio returns a/b, or 0 when b is 0 (partial windows, idle phases).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Rows derives the per-interval time series from the recorded samples.
func (s *IntervalSampler) Rows() []Row {
	rows := make([]Row, 0, len(s.samples))
	var prev Sample // zero: the measured phase starts at zero counters
	for _, cur := range s.samples {
		instrs := float64(cur.Instructions - prev.Instructions)
		cycles := float64(cur.Cycle - prev.Cycle)
		mshrCycles := float64(cur.MSHRCycles - prev.MSHRCycles)
		commits := float64((cur.CommitGMHits - prev.CommitGMHits) + (cur.CommitGMMisses - prev.CommitGMMisses))
		rows = append(rows, Row{
			Cycle:           cur.Cycle,
			Instructions:    cur.Instructions,
			IPC:             ratio(instrs, cycles),
			MPKI:            ratio(float64(cur.DemandMisses-prev.DemandMisses)*1000, instrs),
			L2MPKI:          ratio(float64(cur.L2DemandMisses-prev.L2DemandMisses)*1000, instrs),
			MissLat:         ratio(float64(cur.MissLatSum-prev.MissLatSum), float64(cur.MissLatCnt-prev.MissLatCnt)),
			MSHROcc:         ratio(float64(cur.MSHROccupancy-prev.MSHROccupancy), mshrCycles),
			MSHRFullFrac:    ratio(float64(cur.MSHRFullCycles-prev.MSHRFullCycles), mshrCycles),
			PrefAccuracy:    ratio(float64(cur.PrefUseful-prev.PrefUseful), float64(cur.PrefFilled-prev.PrefFilled)),
			PrefLatePKI:     ratio(float64(cur.PrefLate-prev.PrefLate)*1000, instrs),
			PrefIssuedPKI:   ratio(float64(cur.PrefIssued-prev.PrefIssued)*1000, instrs),
			SUFDropPKI:      ratio(float64(cur.SUFDrops-prev.SUFDrops)*1000, instrs),
			CommitGMHitRate: ratio(float64(cur.CommitGMHits-prev.CommitGMHits), commits),
			DRAMReadPKI:     ratio(float64(cur.DRAMReads-prev.DRAMReads)*1000, instrs),
		})
		prev = cur
	}
	return rows
}

// series is the JSON export envelope.
type series struct {
	Label     string   `json:"label,omitempty"`
	Trace     string   `json:"trace,omitempty"`
	Intervals []Row    `json:"intervals"`
	Samples   []Sample `json:"cumulative"`
}

// WriteJSON writes the time series (derived intervals plus the raw
// cumulative snapshots) as indented JSON. Label and trace name the run
// in the envelope; empty strings are omitted.
func (s *IntervalSampler) WriteJSON(w io.Writer, label, trace string) error {
	return export.WriteJSON(w, series{Label: label, Trace: trace, Intervals: s.Rows(), Samples: s.samples})
}

// csvHeader lists the WriteCSV columns in order.
var csvHeader = []string{
	"cycle", "instructions", "ipc", "mpki", "l2_mpki", "miss_lat",
	"mshr_occ", "mshr_full_frac", "pref_accuracy", "pref_late_pki",
	"pref_issued_pki", "suf_drop_pki", "commit_gm_hit_rate", "dram_read_pki",
}

// WriteCSV writes the derived per-interval rows as CSV.
func (s *IntervalSampler) WriteCSV(w io.Writer) error {
	f := func(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
	t := export.Table{Header: csvHeader}
	for _, r := range s.Rows() {
		t.Rows = append(t.Rows, []string{
			strconv.FormatUint(r.Cycle, 10), strconv.FormatUint(r.Instructions, 10),
			f(r.IPC, 4), f(r.MPKI, 3), f(r.L2MPKI, 3), f(r.MissLat, 1),
			f(r.MSHROcc, 3), f(r.MSHRFullFrac, 4), f(r.PrefAccuracy, 4), f(r.PrefLatePKI, 3),
			f(r.PrefIssuedPKI, 3), f(r.SUFDropPKI, 3), f(r.CommitGMHitRate, 4), f(r.DRAMReadPKI, 3),
		})
	}
	return t.WriteCSV(w)
}

// RunFiles names one run's sampler and tracer artifacts:
// <trace>__<label>.series.json, .series.csv and .trace.json, with the
// label made a file name (export.FileName).
func RunFiles(trace, label string, s *IntervalSampler, t *Tracer) []export.File {
	base := trace + "__" + export.FileName(label)
	return []export.File{
		{Name: base + ".series.json", Write: func(w io.Writer) error { return s.WriteJSON(w, label, trace) }},
		{Name: base + ".series.csv", Write: s.WriteCSV},
		{Name: base + ".trace.json", Write: func(w io.Writer) error { return t.WriteChromeTrace(w, trace+" "+label) }},
	}
}
