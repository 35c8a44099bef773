package workload

import (
	"math/rand"
	"slices"
)

// Graph is a directed graph in CSR (compressed sparse row) form, the
// representation the GAP benchmark suite uses. Offsets has n+1 entries;
// the neighbors of vertex u are Neighbors[Offsets[u]:Offsets[u+1]].
type Graph struct {
	N         int
	Offsets   []int32
	Neighbors []int32
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neigh returns the neighbor slice of u (shared storage; do not mutate).
func (g *Graph) Neigh(u int32) []int32 {
	return g.Neighbors[g.Offsets[u]:g.Offsets[u+1]]
}

// graphCfg identifies a synthetic graph.
type graphCfg struct {
	n    int
	deg  int
	seed int64
}

// NewSkewedGraph builds a graph with n vertices and ~n*deg edges whose
// degree distribution is power-law-skewed (Kronecker/RMAT-like), the
// character of the GAP input graphs. Endpoint choice squares a uniform
// variate so low-numbered vertices act as hubs. Neighbor lists are
// sorted and deduplicated, as GAP's builder produces.
//
// The graph is built straight into CSR by drawing the seeded edge
// stream twice: the first pass counts out-degrees into Offsets, the
// second scatters neighbors into one Neighbors array, and each vertex's
// segment is then sorted and deduplicated in place.
func NewSkewedGraph(n, deg int, seed int64) *Graph {
	off := make([]int32, n+1)
	skewedEdges(n, deg, seed, func(u, _ int32) { off[u+1]++ })
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	// off[u] is u's start; the scatter advances it to u's end.
	nb := make([]int32, off[n])
	skewedEdges(n, deg, seed, func(u, v int32) {
		nb[off[u]] = v
		off[u]++
	})
	// Compact the sorted, deduplicated segments to the left, rewriting
	// off[u] from u's end to its new start.
	w, lo := int32(0), int32(0)
	for u := 0; u < n; u++ {
		seg := nb[lo:off[u]]
		lo = off[u]
		slices.Sort(seg)
		off[u] = w
		prev := int32(-1)
		for _, v := range seg {
			if v != prev {
				nb[w] = v
				w++
				prev = v
			}
		}
	}
	off[n] = w
	return &Graph{N: n, Offsets: off, Neighbors: nb[:w]}
}

// skewedEdges calls edge for each edge of NewSkewedGraph's graph in the
// order its seeded stream draws them: duplicates included, self-loops
// drawn and left out.
func skewedEdges(n, deg int, seed int64, edge func(u, v int32)) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n*deg; i++ {
		u := int32(rng.Intn(n))
		// Skewed target: squaring biases toward 0, creating hubs.
		f := rng.Float64()
		v := int32(f * f * float64(n))
		if v >= int32(n) {
			v = int32(n - 1)
		}
		if u != v {
			edge(u, v)
		}
	}
}

// Graph construction is the most expensive part of GAP trace
// generation, and the experiment harness generates each trace under
// many configurations, so graphs are memoized.
var graphs onceMap[graphCfg, *Graph]

func getGraph(cfg graphCfg) *Graph {
	return graphs.get(cfg, func() *Graph { return NewSkewedGraph(cfg.n, cfg.deg, cfg.seed) })
}
