package sim

import (
	"fmt"
	"math"

	"secpref/internal/mem"
	"secpref/internal/observatory"
)

// EngineVersion identifies the simulation-engine generation. It is
// stamped into bench history records, digest streams, sim-profile
// exports, and campaign snapshots so that performance and determinism
// artifacts recorded under different engines never get compared as if
// they were interchangeable. Bump it whenever the engine's scheduling
// or skipping behaviour changes in a way that could move numbers.
const EngineVersion = "ev7-flat-profile"

// ComponentNames fixes the order of the per-component state-digest
// vector (StateDigests). Absent components (GM on a non-secure system,
// TLB when disabled, Berti when another prefetcher is configured)
// digest to zero at their slot so vectors from different configs stay
// index-compatible.
var ComponentNames = [...]string{"core", "gm", "l1d", "l2", "llc", "dram", "tlb", "berti"}

// NumComponents is the digest vector length.
const NumComponents = len(ComponentNames)

// rankNames names the calendar-queue ranks for attribution profiling,
// in rank order.
var rankNames = [...]string{"core", "gm", "l1d", "l2", "llc", "dram"}

// PrivateComponentNames orders the per-core slice of a sharded
// system's digest vector (Machine.PrivateDigests). The full multicore
// vector is cores × this block followed by the shared {llc, dram} pair;
// MulticoreComponentNames spells it out.
var PrivateComponentNames = [...]string{"core", "gm", "l1d", "l2", "tlb", "berti", "link"}

// NumPrivateComponents is the per-core digest block length.
const NumPrivateComponents = len(PrivateComponentNames)

// MulticoreComponentNames names every index of an n-core sharded
// digest vector: core0/core, core0/gm, …, core{n-1}/link, llc, dram.
func MulticoreComponentNames(n int) []string {
	names := make([]string, 0, n*NumPrivateComponents+2)
	for i := 0; i < n; i++ {
		for _, c := range PrivateComponentNames {
			names = append(names, fmt.Sprintf("core%d/%s", i, c))
		}
	}
	return append(names, "llc", "dram")
}

// DefaultDigestEvery is the digest-stream interval when
// Probes.DigestEvery is zero.
const DefaultDigestEvery mem.Cycle = 4096

// StateDigests appends the per-component architectural-state digests
// (ComponentNames order) to dst and returns it. Two engines that have
// executed the same machine to the same cycle must produce equal
// vectors; the divergence bisector depends on it.
func (m *Machine) StateDigests(dst []uint64) []uint64 {
	var comps [NumComponents]uint64
	comps[0] = m.core.StateDigest()
	if m.gm != nil {
		comps[1] = m.gm.StateDigest()
	}
	comps[2] = m.l1d.StateDigest()
	comps[3] = m.l2.StateDigest()
	comps[4] = m.llc.StateDigest()
	comps[5] = m.mem.StateDigest()
	if m.tlbs != nil {
		comps[6] = m.tlbs.StateDigest()
	}
	if m.bertiPF != nil {
		comps[7] = m.bertiPF.StateDigest()
	}
	return append(dst, comps[:]...)
}

// armDigests arms the rolling digest stream: the run emits the
// per-component state digests into sink at every multiple of the
// interval. The event engine clamps its calendar jumps to digest
// boundaries so both engines sample the same cycles — visiting a
// boundary cycle where nothing is due integrates one idle cycle per
// rank, which is exactly what lockstep stepping does there.
func (m *Machine) armDigests(sink observatory.DigestSink, every mem.Cycle) {
	if sink == nil {
		return
	}
	if every == 0 {
		every = DefaultDigestEvery
	}
	m.digSink = sink
	m.digEvery = every
	m.digNext = m.now - m.now%every + every
	if rec, ok := sink.(*observatory.Recorder); ok {
		rec.EngineVersion = EngineVersion
		rec.Interval = every
		rec.Components = ComponentNames[:]
	}
}

// emitDigests samples the component digests at the current cycle and
// advances the next digest boundary past it.
func (m *Machine) emitDigests() {
	m.digBuf = m.StateDigests(m.digBuf[:0])
	m.digSink.Digest(m.now, m.digBuf)
	for m.digNext <= m.now {
		m.digNext += m.digEvery
	}
	if m.prof != nil {
		m.prof.TrackSample(uint64(m.now))
	}
}

// RunToCycle advances the machine to exactly cycle t, or less when the
// workload finishes first, and reports the clock it stopped at and
// whether the workload is done. It implements observatory.DigestEngine:
// the divergence bisector drives two machines through interleaved
// RunToCycle calls, comparing StateDigests between them. Repeated calls
// with increasing targets continue the same run.
func (m *Machine) RunToCycle(t mem.Cycle) (mem.Cycle, bool, error) {
	err := m.run(math.MaxUint64, mem.NoEvent, t)
	return m.now, err == nil && m.core.Done(), err
}
