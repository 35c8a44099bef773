package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// newSkewedGraphAdjacency is the reference for NewSkewedGraph: the
// builder it replaced, which draws the edge stream once into one
// slice per vertex, then sorts, deduplicates and concatenates them.
func newSkewedGraphAdjacency(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	edges := n * deg
	for i := 0; i < edges; i++ {
		u := int32(rng.Intn(n))
		f := rng.Float64()
		v := int32(f * f * float64(n))
		if v >= int32(n) {
			v = int32(n - 1)
		}
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
	}
	g := &Graph{N: n, Offsets: make([]int32, n+1)}
	total := 0
	for u := range adj {
		ns := adj[u]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		w := 0
		for i, v := range ns {
			if i == 0 || v != ns[i-1] {
				ns[w] = v
				w++
			}
		}
		adj[u] = ns[:w]
		total += w
	}
	g.Neighbors = make([]int32, 0, total)
	for u := range adj {
		g.Offsets[u] = int32(len(g.Neighbors))
		g.Neighbors = append(g.Neighbors, adj[u]...)
	}
	g.Offsets[n] = int32(len(g.Neighbors))
	return g
}

func TestSkewedGraphMatchesAdjacencyBuilder(t *testing.T) {
	cases := []graphCfg{
		{n: 1, deg: 12, seed: 1}, // every edge a self-loop
		{n: 2, deg: 12, seed: 2},
		{n: 1000, deg: 0, seed: 3},
		{n: 10_000, deg: 12, seed: 4},
	}
	for seed := int64(0); seed < 20; seed++ {
		cases = append(cases, graphCfg{n: 1 + int(seed*37)%500, deg: int(seed % 9), seed: seed})
	}
	if !testing.Short() {
		cases = append(cases, gapGraphFor(3, 1)) // bfs-3B's and pr-3B's graph
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d-deg%d-seed%d", c.n, c.deg, c.seed), func(t *testing.T) {
			got := NewSkewedGraph(c.n, c.deg, c.seed)
			want := newSkewedGraphAdjacency(c.n, c.deg, c.seed)
			if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Neighbors, want.Neighbors) {
				t.Fatalf("CSR differs from the adjacency builder's: N %d/%d, %d/%d offsets, %d/%d neighbors",
					got.N, want.N, len(got.Offsets), len(want.Offsets), len(got.Neighbors), len(want.Neighbors))
			}
		})
	}
}

// TestSkewedGraphAllocationBound: building into CSR allocates little
// beyond the CSR itself. The adjacency builder allocated about 4.9x.
func TestSkewedGraphAllocationBound(t *testing.T) {
	const n, deg = 100_000, 12
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewSkewedGraph(n, deg, 5)
	runtime.ReadMemStats(&after)
	csr := 4 * (len(g.Offsets) + len(g.Neighbors))
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.25*float64(csr) {
		t.Errorf("NewSkewedGraph(%d, %d) allocated %d bytes for a %d-byte CSR (%.2fx, bound 1.25x)",
			n, deg, alloc, csr, float64(alloc)/float64(csr))
	}
}

// TestCachesBuildOncePerKey: concurrent callers of one key share a
// single build, and distinct keys build at the same time.
func TestCachesBuildOncePerKey(t *testing.T) {
	const callers = 8
	cfgs := []graphCfg{{n: 3000, deg: 4, seed: 101}, {n: 3000, deg: 4, seed: 102}}
	got := make([][]*Graph, len(cfgs))
	var wg sync.WaitGroup
	for k := range cfgs {
		got[k] = make([]*Graph, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k][i] = getGraph(cfgs[k])
			}()
		}
	}
	Evict()
	p := Params{Instrs: 2000, Seed: 3}
	trs := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := Get("602.gcc-1850B", p)
			if err != nil {
				t.Error(err)
			}
			trs[i] = tr
		}()
	}
	wg.Wait()
	for k, c := range cfgs {
		want := NewSkewedGraph(c.n, c.deg, c.seed)
		for i, g := range got[k] {
			if g != got[k][0] {
				t.Errorf("graph %d: caller %d got a second copy", k, i)
			}
		}
		if !slices.Equal(got[k][0].Neighbors, want.Neighbors) {
			t.Errorf("graph %d differs from NewSkewedGraph's", k)
		}
	}
	if got[0][0] == got[1][0] {
		t.Error("distinct graph keys share one graph")
	}
	for i, tr := range trs {
		if tr != trs[0] {
			t.Errorf("trace caller %d got a second copy", i)
		}
	}

	// Two distinct keys whose builds each wait for the other to start
	// finish only if they build at the same time.
	var m onceMap[int, int]
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	done := make(chan int, 2)
	for k := 0; k < 2; k++ {
		go func() {
			done <- m.get(k, func() int {
				close(started[k])
				<-started[1-k]
				return k
			})
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("distinct keys build one at a time")
		}
	}
	builds := 0
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.get(2, func() int { builds++; return 2 })
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("one key built %d times", builds)
	}
}
