package sim

import (
	"secpref/internal/mem"
	"secpref/internal/probe"
)

// CoreSystem is one core's private slice of a multi-core system: the
// core, its GM (if secure), private L1D and L2, the prefetcher harness,
// and the link into the shared domain — everything except the shared
// LLC and DRAM. Built by BuildSharded.
type CoreSystem = Machine

// Instructions returns the retired instruction count.
func (m *Machine) Instructions() uint64 { return m.core.Stats.Instructions }

// ResetStats zeroes this core's counters at the warmup boundary. On a
// sharded system the shared LLC/DRAM stats are zeroed too; calling it
// once per core at the same barrier is idempotent for those.
func (m *Machine) ResetStats() { m.resetStats() }

// Snapshot assembles the result over the measured window.
func (m *Machine) Snapshot(traceName string, cycles mem.Cycle) *Result {
	return m.result(traceName, cycles)
}

// ArmCoreWindows starts per-core interval sampling on a sharded
// system: samples are stamped with the core index and cover only this
// core's private domain (see sampleWindow). Call after the warmup
// stats reset so windows count from the measured phase.
func (m *Machine) ArmCoreWindows(core int, w probe.WindowObserver, every uint64) {
	m.winCore = core
	m.armWindows(w, every)
}

// FlushCoreWindows emits the final (usually partial) window at run end.
func (m *Machine) FlushCoreWindows() { m.flushWindow() }
