package workload

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"secpref/internal/mem"
	"secpref/internal/trace"
)

// instrs decodes every instruction of tr.
func instrs(tr *trace.Trace) []trace.Instr {
	out := make([]trace.Instr, tr.Len())
	return out[:trace.NewSource(tr).ReadBatch(out)]
}

func TestRegistryComplete(t *testing.T) {
	spec := Suite("spec")
	gap := Suite("gap")
	if len(spec) != 45 {
		t.Errorf("%d SPEC traces registered, want 45 (paper's memory-intensive set)", len(spec))
	}
	if len(gap) != 20 {
		t.Errorf("%d GAP traces registered, want 20", len(gap))
	}
	if len(All()) != 65 {
		t.Errorf("%d total traces, want 65", len(All()))
	}
}

func TestByNameAndUnknown(t *testing.T) {
	if _, err := ByName("605.mcf-1554B"); err != nil {
		t.Errorf("known trace: %v", err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("expected error for unknown trace")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, name := range []string{"605.mcf-1554B", "603.bwa-2931B", "bfs-3B", "602.gcc-1850B"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Instrs: 5000, Seed: 42}
		a := g.Gen(p)
		b := g.Gen(p)
		if !slices.Equal(instrs(a), instrs(b)) {
			t.Errorf("%s: generation is not deterministic", name)
		}
		c := g.Gen(Params{Instrs: 5000, Seed: 43})
		if name != "bfs-3B" && slices.Equal(instrs(a), instrs(c)) {
			// (graph kernels keyed by variant may legitimately coincide
			// for short prefixes; SPEC-like generators must not)
			t.Errorf("%s: different seeds produced identical traces", name)
		}
	}
}

func TestEveryGeneratorProduces(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all 65 traces")
	}
	for _, g := range All() {
		tr := g.Gen(Params{Instrs: 2000, Seed: 1})
		if tr.Name != g.Name {
			t.Errorf("%s: trace named %q", g.Name, tr.Name)
		}
		if tr.Len() < 2000 {
			t.Errorf("%s: only %d instructions", g.Name, tr.Len())
			continue
		}
		loads, stores, branches, deps := 0, 0, 0, 0
		for _, in := range instrs(tr) {
			if in.IP == 0 {
				t.Errorf("%s: zero IP", g.Name)
				break
			}
			if in.Load != 0 {
				loads++
			}
			if in.Store != 0 {
				stores++
			}
			if in.Branch {
				branches++
			}
			if in.Dep {
				deps++
			}
		}
		if loads == 0 {
			t.Errorf("%s: no loads", g.Name)
		}
		if branches == 0 {
			t.Errorf("%s: no branches", g.Name)
		}
		if g.Suite == "gap" && deps == 0 {
			t.Errorf("%s: GAP kernel without dependent loads", g.Name)
		}
	}
}

func TestChaseTracesHaveDependentLoads(t *testing.T) {
	g, err := ByName("605.mcf-1554B")
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Gen(Params{Instrs: 3000, Seed: 1})
	deps := 0
	for _, in := range instrs(tr) {
		if in.Dep {
			deps++
		}
	}
	if deps == 0 {
		t.Fatal("mcf trace has no dependent (pointer-chase) loads")
	}
}

func TestGetMemoizes(t *testing.T) {
	Evict()
	p := Params{Instrs: 1000, Seed: 9}
	a, err := Get("641.leela-1083B", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("641.leela-1083B", p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Get should memoize identical requests")
	}
	Evict()
	c, err := Get("641.leela-1083B", p)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("Evict should clear the cache")
	}
}

func TestGraphCSRInvariants(t *testing.T) {
	f := func(seedRaw int64, nRaw, dRaw uint8) bool {
		n := 100 + int(nRaw)%400
		deg := 1 + int(dRaw)%8
		g := NewSkewedGraph(n, deg, seedRaw)
		if g.N != n || len(g.Offsets) != n+1 {
			return false
		}
		if g.Offsets[0] != 0 || int(g.Offsets[n]) != len(g.Neighbors) {
			return false
		}
		for u := 0; u < n; u++ {
			if g.Offsets[u] > g.Offsets[u+1] {
				return false // offsets must be monotonic
			}
			ns := g.Neigh(int32(u))
			for i, v := range ns {
				if v < 0 || int(v) >= n || v == int32(u) {
					return false // in-range, no self-loops
				}
				if i > 0 && ns[i-1] >= v {
					return false // sorted, deduplicated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDataAddressesStayInRegions(t *testing.T) {
	// Generators promise disjoint per-array regions starting at
	// dataBase; code addresses stay far below.
	g, err := ByName("654.roms-1007B")
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Gen(Params{Instrs: 2000, Seed: 1})
	for _, in := range instrs(tr) {
		if in.Load != 0 && in.Load < dataBase {
			t.Fatalf("load address %#x below data base", in.Load)
		}
		if in.IP >= dataBase {
			t.Fatalf("IP %#x inside data region", in.IP)
		}
	}
	_ = mem.Addr(0)
}

func TestAllTracesBinaryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes all 65 traces")
	}
	for _, g := range All() {
		tr := g.Gen(Params{Instrs: 1500, Seed: 2})
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatalf("%s: write: %v", g.Name, err)
		}
		got, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", g.Name, err)
		}
		if !slices.Equal(instrs(got), instrs(tr)) {
			t.Errorf("%s: binary round trip mismatch", g.Name)
		}
	}
}
