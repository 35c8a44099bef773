package workload

import (
	"testing"

	"secpref/internal/mem"
)

// regionOf classifies a data address by generator region.
func regionOfAddr(a mem.Addr) int {
	if a < dataBase {
		return -1
	}
	return int((a - dataBase) / regionSize)
}

func TestGAPAddressStreamStructure(t *testing.T) {
	g, err := ByName("bfs-3B")
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Gen(Params{Instrs: 8000, Seed: 1})
	counts := map[int]int{}
	for _, in := range instrs(tr) {
		if in.Load != 0 {
			counts[regionOfAddr(in.Load)]++
		}
	}
	// BFS must touch offsets (0), neighbors (1), vertex data (2), and
	// the worklist (4).
	for _, region := range []int{0, 1, 2, 4} {
		if counts[region] == 0 {
			t.Errorf("bfs trace never loads from region %d (counts=%v)", region, counts)
		}
	}
	// The neighbor stream dominates the offsets stream (degree > 1).
	if counts[1] <= counts[0] {
		t.Errorf("neighbor loads (%d) should outnumber offset loads (%d)", counts[1], counts[0])
	}
}

func TestGAPPropertyLoadsAreDependent(t *testing.T) {
	// The vertex-property gather (region 2/3) must carry the Dep flag —
	// its address comes from the neighbor value.
	g, err := ByName("sssp-5B")
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Gen(Params{Instrs: 8000, Seed: 1})
	dep, total := 0, 0
	for _, in := range instrs(tr) {
		if in.Load != 0 && regionOfAddr(in.Load) == 2 {
			total++
			if in.Dep {
				dep++
			}
		}
	}
	if total == 0 {
		t.Fatal("no property gathers in sssp trace")
	}
	if dep*2 < total {
		t.Errorf("only %d/%d property gathers are dependent", dep, total)
	}
}

func TestGAPNeighborStreamIsSequential(t *testing.T) {
	g, err := ByName("pr-3B")
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Gen(Params{Instrs: 8000, Seed: 1})
	var last mem.Addr
	seq, runs := 0, 0
	for _, in := range instrs(tr) {
		if in.Load == 0 || regionOfAddr(in.Load) != 1 {
			continue
		}
		if last != 0 {
			runs++
			if in.Load == last+4 {
				seq++
			}
		}
		last = in.Load
	}
	if runs == 0 {
		t.Fatal("no neighbor loads")
	}
	// PageRank streams whole neighbor lists: most consecutive neighbor
	// loads advance by one int32.
	if float64(seq)/float64(runs) < 0.5 {
		t.Errorf("neighbor stream not sequential: %d/%d", seq, runs)
	}
}

func TestGraphMemoization(t *testing.T) {
	a := getGraph(graphCfg{n: 1000, deg: 4, seed: 7})
	b := getGraph(graphCfg{n: 1000, deg: 4, seed: 7})
	if a != b {
		t.Error("graphs with identical configs should be shared")
	}
	c := getGraph(graphCfg{n: 1000, deg: 4, seed: 8})
	if a == c {
		t.Error("different seeds must produce different graphs")
	}
}

func TestSkewedGraphHasHubs(t *testing.T) {
	g := NewSkewedGraph(10_000, 8, 3)
	// Count in-degree skew: low-id vertices should be hubs.
	indeg := make([]int, g.N)
	for _, v := range g.Neighbors {
		indeg[v]++
	}
	lowSum, highSum := 0, 0
	for i := 0; i < g.N/10; i++ {
		lowSum += indeg[i]
	}
	for i := g.N - g.N/10; i < g.N; i++ {
		highSum += indeg[i]
	}
	if lowSum <= 2*highSum {
		t.Errorf("no hub skew: low-decile in-degree %d vs high-decile %d", lowSum, highSum)
	}
}
