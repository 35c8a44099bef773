// Package trace defines the instruction trace format consumed by the
// simulator. A trace is a sequence of retired-instruction records in
// program order, in the spirit of ChampSim traces: each record carries
// the instruction pointer, at most one data-load and one data-store
// address, and branch direction information.
//
// Traces are held in memory: the workload generators produce them
// directly, and Read decodes a whole file written by Write in a
// compact binary encoding (binary.go).
package trace

import (
	"errors"
	"fmt"

	"secpref/internal/mem"
)

// Instr is one retired instruction in program order.
type Instr struct {
	// IP is the instruction pointer.
	IP mem.Addr
	// Load is the data address read by the instruction, or 0 if none.
	// (Address 0 is reserved and never generated by the workloads.)
	Load mem.Addr
	// Store is the data address written by the instruction, or 0.
	Store mem.Addr
	// Branch marks a conditional branch; Taken is its outcome.
	Branch bool
	Taken  bool
	// Dep marks a load whose address depends on the value of the
	// nearest preceding load (pointer chasing): it cannot issue to the
	// memory system until that load completes. This is how the traces
	// encode the serialized miss chains of mcf-like and graph
	// workloads, which a register-free trace format cannot otherwise
	// express.
	Dep bool
}

// IsMem reports whether the instruction accesses data memory.
func (in Instr) IsMem() bool { return in.Load != 0 || in.Store != 0 }

// Trace is an in-memory instruction trace with an identifying name
// (e.g. "605.mcf-1554B" or "bfs-10").
type Trace struct {
	Name   string
	Instrs []Instr
}

// Len returns the number of instructions.
func (t *Trace) Len() int { return len(t.Instrs) }

// Source yields instructions in program order. ReadBatch decodes up
// to len(dst) instructions into the caller's reusable buffer and
// returns how many it wrote, 0 meaning end of trace: the core's
// dispatch stage refills a buffer per call rather than paying an
// interface call (and, for wrapped sources, a whole call chain) per
// instruction.
type Source interface {
	// Name identifies the trace.
	Name() string
	// ReadBatch decodes the next instructions into dst.
	ReadBatch(dst []Instr) int
	// Reset rewinds to the beginning of the trace.
	Reset()
}

// BatchSource is another name for Source, kept for the benchmark
// module (perfbench), which still uses it.
type BatchSource = Source

// sliceSource adapts an in-memory Trace to Source.
type sliceSource struct {
	t   *Trace
	pos int
}

// NewSource returns a Source over an in-memory trace.
func NewSource(t *Trace) Source { return &sliceSource{t: t} }

func (s *sliceSource) Name() string { return s.t.Name }

func (s *sliceSource) ReadBatch(dst []Instr) int {
	n := copy(dst, s.t.Instrs[s.pos:])
	s.pos += n
	return n
}

func (s *sliceSource) Reset() { s.pos = 0 }

// Offset wraps a Source, relocating every data address by delta bytes.
// Multi-core mixes use it to give each core a disjoint address space,
// as distinct processes would have.
func Offset(src Source, delta mem.Addr) Source {
	return &offsetSource{src: src, delta: delta}
}

type offsetSource struct {
	src   Source
	delta mem.Addr
}

func (o *offsetSource) Name() string { return o.src.Name() }

func (o *offsetSource) ReadBatch(dst []Instr) int {
	n := o.src.ReadBatch(dst)
	for i := range dst[:n] {
		if dst[i].Load != 0 {
			dst[i].Load += o.delta
		}
		if dst[i].Store != 0 {
			dst[i].Store += o.delta
		}
	}
	return n
}

func (o *offsetSource) Reset() { o.src.Reset() }

// Repeat wraps a Source so that it restarts from the beginning after
// the underlying trace ends, up to a total of n instructions. It is
// used to stretch short synthetic traces over long simulations.
func Repeat(src Source, n int) Source {
	return &repeatSource{src: src, limit: n}
}

type repeatSource struct {
	src   Source
	limit int
	count int
}

func (r *repeatSource) Name() string { return r.src.Name() }

func (r *repeatSource) ReadBatch(dst []Instr) int {
	if rem := r.limit - r.count; rem <= 0 {
		return 0
	} else if len(dst) > rem {
		dst = dst[:rem]
	}
	total := 0
	for total < len(dst) {
		n := r.src.ReadBatch(dst[total:])
		if n == 0 {
			r.src.Reset()
			n = r.src.ReadBatch(dst[total:])
			if n == 0 {
				break // empty underlying trace
			}
		}
		total += n
	}
	r.count += total
	return total
}

func (r *repeatSource) Reset() {
	r.src.Reset()
	r.count = 0
}

// ErrEmptySource reports a source that yields no instructions at all.
// Repeat over such a source would silently produce nothing and the
// simulation would only fail much later with a no-progress error, so
// machine construction rejects empty sources up front via NonEmpty.
var ErrEmptySource = errors.New("trace: source yields no instructions")

// NonEmpty verifies that src yields at least one instruction, returning
// ErrEmptySource (wrapped with the trace name) if it does not. The
// probe reads one instruction and then rewinds the source, so the
// caller observes it from the beginning. Returning src itself (rather
// than a replay wrapper) keeps the dispatch stage's refills free of an
// extra indirection on the simulator's hot path.
func NonEmpty(src Source) (Source, error) {
	if src.ReadBatch(make([]Instr, 1)) == 0 {
		return nil, fmt.Errorf("%w (trace %q)", ErrEmptySource, src.Name())
	}
	src.Reset()
	return src, nil
}
