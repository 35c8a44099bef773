package sim

import (
	"fmt"
	"math"

	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/trace"
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

// DigestStream is an engine's rolling state-digest stream: it hands
// the engine's digest vector to a sink at every multiple of an
// interval, warmup included, so streams from two engines compare end to
// end. The event engine clamps its jumps to the stream's boundaries, so
// every engine samples the same cycles: visiting a boundary cycle where
// nothing is due integrates one idle cycle per rank, which is exactly
// what lockstep stepping does there. The zero value is unarmed.
type DigestStream struct {
	sink  *observatory.Recorder
	every mem.Cycle
	next  mem.Cycle
	buf   []uint64
}

// Arm starts the stream at cycle zero with interval every (zero means
// DefaultDigestEvery) and stamps the sink with the engine version, the
// interval and the vector's component names. A nil sink leaves the
// stream unarmed.
func (s *DigestStream) Arm(sink *observatory.Recorder, every mem.Cycle, names []string) {
	if sink == nil {
		return
	}
	if every == 0 {
		every = DefaultDigestEvery
	}
	*s = DigestStream{sink: sink, every: every, next: every}
	sink.EngineVersion = EngineVersion
	sink.Interval = every
	sink.Components = names
}

// Clamp lowers limit to the next digest boundary of an armed stream.
func (s *DigestStream) Clamp(limit mem.Cycle) mem.Cycle {
	if s.sink != nil && s.next < limit {
		return s.next
	}
	return limit
}

// Due reports whether an armed stream's next boundary has been reached.
func (s *DigestStream) Due(now mem.Cycle) bool { return s.sink != nil && now >= s.next }

// Emit hands the digest vector that digests appends to the sink at
// cycle now and moves the next boundary past it.
func (s *DigestStream) Emit(now mem.Cycle, digests func([]uint64) []uint64) {
	s.buf = digests(s.buf[:0])
	s.sink.Digest(now, s.buf)
	for s.next <= now {
		s.next += s.every
	}
}

// emitDigests emits the machine's digest vector at the current cycle.
func (m *Machine) emitDigests() {
	m.digests.Emit(m.now, m.StateDigests)
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

// CompareEngines runs cfg on the lockstep reference and on the event
// engine, with digests every `every` cycles (zero means
// DefaultDigestEvery), and requires bit-identical digest streams,
// results and final StateDigests of every machine (observatory.Compare).
// threads returns fresh sources of the same traces on every call: one
// trace runs a single-core machine, two run the SMT core.
func CompareEngines(cfg Config, threads func() ([]trace.Source, error), every mem.Cycle) error {
	build := func(ref bool) ([]*Machine, []trace.Source, error) {
		srcs, err := threads()
		if err != nil {
			return nil, nil, err
		}
		var ms []*Machine
		if len(srcs) == 1 {
			m, err := NewMachine(cfg, srcs[0])
			if err != nil {
				return nil, nil, err
			}
			ms = []*Machine{m}
		} else if ms, err = BuildSMT(cfg, srcs); err != nil {
			return nil, nil, err
		}
		ms[0].UseReferenceEngine(ref)
		return ms, srcs, nil
	}
	run := func(ref bool) observatory.Run {
		return observatory.Run{
			Result: func(rec *observatory.Recorder) (any, error) {
				ms, srcs, err := build(ref)
				if err != nil {
					return nil, err
				}
				start, err := runPhases(ms, Probes{Digest: rec, DigestEvery: every})
				if err != nil {
					return nil, err
				}
				final := make([][]uint64, len(ms))
				for i, m := range ms {
					final[i] = m.StateDigests(nil)
				}
				return []any{threadResults(ms, srcs, start), final}, nil
			},
			Engine: func() (observatory.DigestEngine, error) {
				ms, _, err := build(ref)
				if err != nil {
					return nil, err
				}
				return ms[0], nil
			},
		}
	}
	return observatory.Compare(run(true), []observatory.Run{run(false)}, ComponentNames[:])
}
