// Package secpref is a cycle-level simulation library reproducing
// "Secure Prefetching for Secure Cache Systems" (MICRO 2024): the
// GhostMinion secure cache system, five state-of-the-art hardware data
// prefetchers (IP-stride, IPCP, Bingo, SPP+PPF, Berti), and the paper's
// contributions — the Secure Update Filter (SUF) and the Timely Secure
// Berti (TSB) prefetcher with timely-secure (TS) variants of the
// others.
//
// The library is organized around three entry points:
//
//   - Run simulates one workload on one configured system and returns
//     detailed statistics (IPC, per-level traffic and latency, prefetch
//     accuracy, miss classification, energy).
//   - RunMix simulates a multi-programmed mix on a multi-core system
//     with a shared LLC.
//   - The Attack functions demonstrate the threat model: Spectre-style
//     transient leaks through the cache and through a speculatively
//     trained prefetcher, and their mitigation.
//
// Workloads are deterministic synthetic traces named after the SPEC
// CPU2017 / GAP traces of the paper's evaluation; see Workloads.
//
// A minimal session:
//
//	cfg := secpref.DefaultConfig()
//	cfg.Secure = true
//	cfg.SUF = true
//	cfg.Prefetcher = "berti"
//	cfg.Mode = secpref.ModeTimelySecure // TSB
//	res, err := secpref.Run(cfg, "605.mcf-1554B", secpref.DefaultWorkloadParams())
package secpref

import (
	"fmt"

	"secpref/internal/attack"
	"secpref/internal/mem"
	"secpref/internal/multicore"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// Config describes one simulated system; see the field documentation in
// the underlying type. Zero values are not useful — start from
// DefaultConfig.
type Config = sim.Config

// Result is the measured outcome of one simulation.
type Result = sim.Result

// Mode selects when the prefetcher trains and triggers prefetches.
type Mode = sim.Mode

// Prefetcher training/trigger modes.
const (
	// ModeOnAccess is conventional (insecure) prefetching.
	ModeOnAccess = sim.ModeOnAccess
	// ModeOnCommit is secure but timeliness-impaired prefetching.
	ModeOnCommit = sim.ModeOnCommit
	// ModeTimelySecure is the paper's contribution: TSB for Berti,
	// lateness-adaptive distance for the other prefetchers.
	ModeTimelySecure = sim.ModeTimelySecure
)

// Cycle is a simulation timestamp in core clock cycles.
type Cycle = mem.Cycle

// Addr is a byte address: an instruction pointer or a data address.
type Addr = mem.Addr

// WorkloadParams sizes trace generation.
type WorkloadParams = workload.Params

// DefaultConfig returns the paper's Table II single-core baseline.
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultWorkloadParams returns the harness defaults (200k instructions,
// seed 1).
func DefaultWorkloadParams() WorkloadParams { return workload.DefaultParams() }

// Prefetchers lists the available prefetcher names, in the paper's plot
// order.
func Prefetchers() []string { return sim.PrefetcherNames() }

// Workloads lists the available trace names (45 SPEC-like + 20
// GAP-like, as in the paper's evaluation).
func Workloads() []string { return workload.Names() }

// WorkloadSuite lists the trace names of one suite ("spec" or "gap").
func WorkloadSuite(suite string) []string {
	gens := workload.Suite(suite)
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name
	}
	return names
}

// Run simulates the named workload on the configured system.
func Run(cfg Config, traceName string, p WorkloadParams) (*Result, error) {
	tr, err := workload.Get(traceName, p)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, trace.NewSource(tr))
}

// RunTrace simulates a caller-provided trace (one built with
// Trace.Append, or generated with GenerateTrace) on the configured
// system.
func RunTrace(cfg Config, t *Trace) (*Result, error) {
	return sim.Run(cfg, trace.NewSource(t))
}

// Probes configures observability attachments for a probed run: a
// fine-grained event observer (e.g. a request-lifecycle tracer) and an
// interval window observer (e.g. a time-series sampler). Attached
// observers never change the simulated outcome. See internal/probe and
// docs/observability.md.
type Probes = sim.Probes

// RunProbed simulates the named workload with observers attached.
func RunProbed(cfg Config, traceName string, p WorkloadParams, pr Probes) (*Result, error) {
	tr, err := workload.Get(traceName, p)
	if err != nil {
		return nil, err
	}
	return sim.RunProbed(cfg, trace.NewSource(tr), pr)
}

// RunTraceProbed simulates a caller-provided trace with observers
// attached.
func RunTraceProbed(cfg Config, t *Trace, pr Probes) (*Result, error) {
	return sim.RunProbed(cfg, trace.NewSource(t), pr)
}

// Trace is an in-memory instruction trace, held in the compact record
// encoding of trace files. Build one by appending its instructions in
// program order:
//
//	t := &secpref.Trace{Name: "my-loop"}
//	t.Append(secpref.Instr{IP: 0x400000, Load: 0x10000000})
//	t.Append(secpref.Instr{IP: 0x400004, Branch: true, Taken: true})
//
// and simulate it with RunTrace.
type Trace = trace.Trace

// Instr is one retired instruction of a Trace: its instruction
// pointer, at most one load and one store address (0 for none), and
// branch and dependence flags.
type Instr = trace.Instr

// GenerateTrace builds the named synthetic workload trace.
func GenerateTrace(name string, p WorkloadParams) (*Trace, error) {
	return workload.Get(name, p)
}

// MixResult aggregates per-core results of a multi-core run.
type MixResult = multicore.Result

// RunMix simulates a multi-programmed mix: one trace name per core,
// sharing the LLC and DRAM channel (the paper's 4-core system).
func RunMix(cfg Config, traceNames []string, p WorkloadParams) (*MixResult, error) {
	if len(traceNames) == 0 {
		return nil, fmt.Errorf("secpref: empty mix")
	}
	mc := multicore.Config{Single: cfg, Cores: len(traceNames)}
	mix := make([]trace.Source, len(traceNames))
	for i, name := range traceNames {
		tr, err := workload.Get(name, p)
		if err != nil {
			return nil, err
		}
		mix[i] = trace.NewSource(tr)
	}
	return multicore.Run(mc, mix)
}

// AttackConfig selects the system under attack.
type AttackConfig = attack.Config

// AttackOutcome reports one attack attempt.
type AttackOutcome = attack.Outcome

// SpectreCacheLeak mounts the classic transient cache leak; see
// internal/attack for the scenario.
func SpectreCacheLeak(cfg AttackConfig, secret int) (AttackOutcome, error) {
	return attack.SpectreCacheLeak(cfg, secret)
}

// SpectrePrefetchLeak mounts the prefetcher-channel transient leak the
// paper's on-commit prefetching defeats.
func SpectrePrefetchLeak(cfg AttackConfig, secret int) (AttackOutcome, error) {
	return attack.SpectrePrefetchLeak(cfg, secret)
}

// PrefetcherAccuracy returns the prefetch accuracy of a result for the
// named prefetcher, aggregating fills from its home level down (L1D for
// ip-stride/ipcp/berti, L2 for bingo/spp-ppf).
func PrefetcherAccuracy(res *Result, prefetcher string) float64 {
	return res.PrefAccuracy(sim.HomeOf(prefetcher))
}
