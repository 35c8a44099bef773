package observatory

import (
	"fmt"
	"io"

	"secpref/internal/export"
	"secpref/internal/mem"
)

// DigestPoint is one recorded digest-stream sample.
type DigestPoint struct {
	Cycle mem.Cycle `json:"cycle"`
	Comps []uint64  `json:"digests"`
}

// Recorder stores a run's rolling per-component state-digest stream
// for comparison and export. Not safe for concurrent use — one
// Recorder per run.
type Recorder struct {
	// EngineVersion and Interval are stamped by the simulator when the
	// recorder is attached.
	EngineVersion string    `json:"engine_version,omitempty"`
	Interval      mem.Cycle `json:"interval,omitempty"`
	// Components names the digest vector's indices (stamped on attach).
	Components []string      `json:"components,omitempty"`
	Points     []DigestPoint `json:"points"`
}

// NewRecorder returns an empty digest-stream recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Digest records the component digest vector comps at cycle. The
// engine reuses comps across calls, so Digest copies it.
func (r *Recorder) Digest(cycle mem.Cycle, comps []uint64) {
	r.Points = append(r.Points, DigestPoint{Cycle: cycle, Comps: append([]uint64(nil), comps...)})
}

// Len returns the number of recorded points.
func (r *Recorder) Len() int { return len(r.Points) }

// WriteJSON writes the digest stream as an indented JSON envelope.
func (r *Recorder) WriteJSON(w io.Writer) error { return export.WriteJSON(w, r) }

// Divergence locates the first disagreement between two digest
// streams or engines.
type Divergence struct {
	// Cycle is the first cycle at which the engines disagree. For
	// stream comparison it is the first divergent checkpoint; Bisect
	// refines it to the exact cycle.
	Cycle mem.Cycle
	// Component is the index of the first divergent component digest,
	// or -1 when the streams disagree structurally (different lengths
	// or checkpoint cycles).
	Component int
	// A and B are the divergent digest values.
	A, B uint64
}

func (d Divergence) String() string {
	if d.Component < 0 {
		return fmt.Sprintf("streams structurally diverge at cycle %d", d.Cycle)
	}
	return fmt.Sprintf("cycle %d component %d: %#x != %#x", d.Cycle, d.Component, d.A, d.B)
}

// comparePoints returns the first divergent component of two digest
// vectors, or -1 if equal.
func comparePoints(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// FirstDivergence compares two recorded digest streams checkpoint by
// checkpoint and returns the first disagreement, or ok=false when the
// streams agree at every common checkpoint and have equal length.
func FirstDivergence(a, b *Recorder) (Divergence, bool) {
	n := len(a.Points)
	if len(b.Points) < n {
		n = len(b.Points)
	}
	for i := 0; i < n; i++ {
		pa, pb := a.Points[i], b.Points[i]
		if pa.Cycle != pb.Cycle {
			return Divergence{Cycle: minCycle(pa.Cycle, pb.Cycle), Component: -1}, true
		}
		if c := comparePoints(pa.Comps, pb.Comps); c >= 0 {
			var va, vb uint64
			if c < len(pa.Comps) {
				va = pa.Comps[c]
			}
			if c < len(pb.Comps) {
				vb = pb.Comps[c]
			}
			return Divergence{Cycle: pa.Cycle, Component: c, A: va, B: vb}, true
		}
	}
	if len(a.Points) != len(b.Points) {
		var at mem.Cycle
		if n < len(a.Points) {
			at = a.Points[n].Cycle
		} else {
			at = b.Points[n].Cycle
		}
		return Divergence{Cycle: at, Component: -1}, true
	}
	return Divergence{}, false
}

func minCycle(a, b mem.Cycle) mem.Cycle {
	if a < b {
		return a
	}
	return b
}

// DigestRequest folds an in-flight memory request's architectural
// fields into d (component StateDigest implementations share it for
// queue and MSHR contents). A nil request folds a distinct marker.
func DigestRequest(d Digest, r *mem.Request) Digest {
	if r == nil {
		return d.Word(0x6e696c) // "nil"
	}
	d = d.Word(uint64(r.Line)).Word(uint64(r.IP)).Word(uint64(r.Kind))
	d = d.Word(uint64(r.Issued)).Word(r.Timestamp).Word(uint64(r.FillLevel))
	d = d.Bool(r.SpecBypass).Bool(r.Dirty).Word(uint64(r.WBBits))
	d = d.Word(uint64(r.ServedBy)).Bool(r.MergedPrefetch).Word(uint64(r.FillLat))
	d = d.Bool(r.HitPrefetched).Word(uint64(r.OwnerTag))
	return d
}
