// Package workload generates deterministic synthetic instruction traces
// that stand in for the SPEC CPU2017 and GAP ChampSim traces used by
// the paper (which are multi-gigabyte and not redistributable). Each
// generator reproduces the access-pattern *class* of its namesake —
// stride regularity, working-set size, pointer-chasing depth, branch
// behaviour — because those are the properties that drive the
// prefetcher / secure-cache interactions under study.
//
// Generators are deterministic functions of (name, seed, length): the
// same inputs always produce byte-identical traces, which the tests
// rely on.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"secpref/internal/mem"
	"secpref/internal/trace"
)

// Params control trace generation.
type Params struct {
	// Instrs is the number of instructions to generate (approximate:
	// generators finish the loop iteration in progress).
	Instrs int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultParams returns the parameters used by the experiment harness
// when none are specified.
func DefaultParams() Params { return Params{Instrs: 200_000, Seed: 1} }

// Generator produces a synthetic trace.
type Generator struct {
	// Name of the trace this generator mimics (e.g. "605.mcf-1554B").
	Name string
	// Suite is "spec" or "gap".
	Suite string
	// Gen builds the trace.
	Gen func(p Params) *trace.Trace
}

var registry []Generator

func register(g Generator) {
	registry = append(registry, g)
}

// All returns every registered generator, SPEC first then GAP, each
// suite in name order. The slice is a copy.
func All() []Generator {
	out := make([]Generator, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite > out[j].Suite // "spec" > "gap"
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the generators of one suite ("spec" or "gap").
func Suite(name string) []Generator {
	var out []Generator
	for _, g := range All() {
		if g.Suite == name {
			out = append(out, g)
		}
	}
	return out
}

// ByName returns the generator for a trace name.
func ByName(name string) (Generator, error) {
	for _, g := range registry {
		if g.Name == name {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("workload: unknown trace %q", name)
}

// Names returns all registered trace names in All() order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, g := range all {
		out[i] = g.Name
	}
	return out
}

// emitter appends instructions to a trace with a compact builder API. All
// generators use it so that IP assignment and loop-branch emission are
// uniform: every call site gets a stable IP, loads/stores carry that
// IP, and loop back-edges are conditional branches with realistic
// taken/not-taken behaviour for the perceptron predictor.
type emitter struct {
	t      *trace.Trace
	limit  int
	rng    *rand.Rand
	nextIP mem.Addr
}

// Code and data live in disjoint address regions. Each data array gets
// its own region so arrays never alias.
const (
	codeBase = mem.Addr(0x0040_0000)
	dataBase = mem.Addr(0x1_0000_0000)
	// regionSize separates data arrays (64 MiB each).
	regionSize = mem.Addr(64 << 20)
)

func newEmitter(name string, p Params) *emitter {
	return &emitter{
		t:      &trace.Trace{Name: name},
		limit:  p.Instrs,
		rng:    rand.New(rand.NewSource(p.Seed)),
		nextIP: codeBase,
	}
}

// region returns the base address of data region i.
func region(i int) mem.Addr { return dataBase + mem.Addr(i)*regionSize }

// ip allocates a stable instruction pointer for a static call site.
func (e *emitter) ip() mem.Addr {
	a := e.nextIP
	e.nextIP += 4
	return a
}

// full reports whether the instruction budget is exhausted.
func (e *emitter) full() bool { return e.t.Len() >= e.limit }

// exec emits n plain ALU instructions at IP ip (modelling loop-body
// compute that separates memory accesses in time).
func (e *emitter) exec(ip mem.Addr, n int) {
	for i := 0; i < n; i++ {
		e.t.Append(trace.Instr{IP: ip + mem.Addr(i*4)})
	}
}

// load emits a data load of addr at IP ip.
func (e *emitter) load(ip, addr mem.Addr) {
	e.t.Append(trace.Instr{IP: ip, Load: addr})
}

// store emits a data store of addr at IP ip.
func (e *emitter) store(ip, addr mem.Addr) {
	e.t.Append(trace.Instr{IP: ip, Store: addr})
}

// branch emits a conditional branch with the given outcome.
func (e *emitter) branch(ip mem.Addr, taken bool) {
	e.t.Append(trace.Instr{IP: ip, Branch: true, Taken: taken})
}

// done finalizes the trace.
func (e *emitter) done() *trace.Trace { return e.t }
