// Package observatory is the engine-introspection layer: it explains
// where a simulation's host cycles went and proves, cheaply and
// continuously, that two engines executed the same machine.
//
// It has four parts, all zero-overhead-when-off like internal/probe:
//
//   - Attribution profiling (Profile): per-component-rank tick and
//     integrate counts, wake-poke causes, conditional re-arm outcomes,
//     and gap-size histograms for the calendar-queue engine, plus
//     optional sampled wall-time per component tick. Exported as a
//     sim-profile table (JSON/CSV), Perfetto-loadable counter tracks,
//     and Prometheus gauges.
//   - Determinism digests (Digest, Recorder): each component hashes its
//     architectural state into a uint64; the machine emits the rolling
//     per-component digest vector at a configurable cycle interval, so
//     two engines can be compared at every interval instead of
//     DeepEqual-at-end.
//   - Divergence bisection (Bisect): drives two deterministic engines
//     against each other and binary-searches to the first divergent
//     (cycle, component).
//   - The engine comparison (Compare): runs a reference and the runs
//     under test, compares their digest streams and results, and
//     bisects any mismatch. Every engine-equivalence check calls it.
//
// The package deliberately depends only on internal/mem and the
// stdlib-only internal/export, so every component package can
// implement StateDigest() with its helpers.
package observatory

// FNV-1a 64-bit parameters, word-folded: state is hashed a uint64 at a
// time (one xor + one multiply per word) rather than per byte. The
// digest is a divergence detector, not a cryptographic commitment —
// what matters is that any single-field difference in architectural
// state flips the result with overwhelming probability, and that the
// fold is cheap enough to run every few thousand cycles.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest is a word-folded FNV-1a accumulator over a component's
// architectural state. Components build their StateDigest() with it:
//
//	d := observatory.NewDigest()
//	d = d.Word(uint64(tag)).Word(uint64(lru))
//	return uint64(d)
//
// The accumulator is a value type on purpose: chaining never allocates
// and a forgotten reassignment fails loudly in review, not silently at
// run time.
type Digest uint64

// NewDigest returns the FNV-1a offset basis.
func NewDigest() Digest { return fnvOffset }

// Word folds one 64-bit word into the digest.
func (d Digest) Word(v uint64) Digest {
	return (d ^ Digest(v)) * fnvPrime
}

// Bool folds a flag into the digest.
func (d Digest) Bool(b bool) Digest {
	if b {
		return d.Word(1)
	}
	return d.Word(0)
}

// Sum returns the accumulated digest.
func (d Digest) Sum() uint64 { return uint64(d) }

// HashBytes digests a byte slice with byte-wise FNV-1a (bench records
// fingerprint serialized results with it).
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
