// Package graph is the graph-processing substrate for the paper's
// memory-centric use case (Section II.B): "graph-heavy applications
// (typical in the intelligence community) need to track information over a
// long time, the graphs are hard to reproduce after reboots/failures due to
// their sheer size". It provides a compressed sparse row graph, synthetic
// generators, a PageRank kernel, and an adjacency-matrix export so
// PageRank can run as iterated MVM on the Dot Product Engine.
package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Graph is a directed graph in CSR form.
type Graph struct {
	n       int
	offsets []int32 // len n+1
	edges   []int32 // len m
}

// NewGraph builds a graph from an adjacency list. Node IDs must be in
// [0, n).
func NewGraph(n int, adj [][]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one node, got %d", n)
	}
	if len(adj) > n {
		return nil, fmt.Errorf("graph: adjacency for %d nodes exceeds n=%d", len(adj), n)
	}
	g := &Graph{n: n, offsets: make([]int32, n+1)}
	var m int
	for u := 0; u < n; u++ {
		g.offsets[u] = int32(m)
		if u < len(adj) {
			for _, v := range adj[u] {
				if v < 0 || v >= n {
					return nil, fmt.Errorf("graph: edge %d->%d outside [0,%d)", u, v, n)
				}
				m++
			}
		}
	}
	g.offsets[n] = int32(m)
	g.edges = make([]int32, 0, m)
	for u := 0; u < len(adj); u++ {
		for _, v := range adj[u] {
			g.edges = append(g.edges, int32(v))
		}
	}
	return g, nil
}

// Nodes returns the node count.
func (g *Graph) Nodes() int { return g.n }

// EdgesCount returns the edge count.
func (g *Graph) EdgesCount() int { return len(g.edges) }

// OutDegree returns node u's out-degree.
func (g *Graph) OutDegree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns node u's out-neighbors (shared slice; do not mutate).
func (g *Graph) Neighbors(u int) []int32 {
	return g.edges[g.offsets[u]:g.offsets[u+1]]
}

// RandomPreferential generates a graph with preferential attachment
// (power-law-ish in-degrees): each new node draws outDeg targets biased
// toward already-popular nodes.
func RandomPreferential(n, outDeg int, rng *rand.Rand) (*Graph, error) {
	if n <= 1 || outDeg <= 0 {
		return nil, fmt.Errorf("graph: need n > 1 and outDeg > 0, got %d, %d", n, outDeg)
	}
	if rng == nil {
		return nil, fmt.Errorf("graph: nil rng")
	}
	adj := make([][]int, n)
	// targets accumulates endpoints for preferential sampling.
	targets := []int{0}
	for u := 1; u < n; u++ {
		seen := make(map[int]bool, outDeg)
		for d := 0; d < outDeg && d < u; d++ {
			var v int
			if rng.Float64() < 0.7 {
				v = targets[rng.Intn(len(targets))]
			} else {
				v = rng.Intn(u)
			}
			if v == u || seen[v] {
				continue
			}
			seen[v] = true
			adj[u] = append(adj[u], v)
			targets = append(targets, v)
		}
		targets = append(targets, u)
	}
	return NewGraph(n, adj)
}

// PageRank runs damped PageRank for iters iterations, returning the rank
// vector and the total flop count (for workload characterization).
func (g *Graph) PageRank(damping float64, iters int) ([]float64, float64, error) {
	if damping <= 0 || damping >= 1 {
		return nil, 0, fmt.Errorf("graph: damping %g outside (0,1)", damping)
	}
	if iters <= 0 {
		return nil, 0, fmt.Errorf("graph: iters must be positive, got %d", iters)
	}
	n := g.n
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	var flops float64
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(n)
		for i := range next {
			next[i] = base
		}
		// Dangling mass redistributes uniformly.
		var dangling float64
		for u := 0; u < n; u++ {
			deg := g.OutDegree(u)
			if deg == 0 {
				dangling += rank[u]
				continue
			}
			share := damping * rank[u] / float64(deg)
			for _, v := range g.Neighbors(u) {
				next[v] += share
			}
			flops += float64(deg) + 2
		}
		if dangling > 0 {
			spread := damping * dangling / float64(n)
			for i := range next {
				next[i] += spread
			}
			flops += float64(n)
		}
		rank, next = next, rank
	}
	return rank, flops, nil
}

// TransitionMatrix exports the column-stochastic damped transition matrix
// T[u][v] such that rank' = T^T · rank, i.e. iterating MVM on the matrix
// reproduces PageRank — this is what maps PageRank onto crossbars.
// Dangling nodes distribute uniformly. Only practical for small graphs
// (n x n dense).
func (g *Graph) TransitionMatrix(damping float64) ([][]float64, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("graph: damping %g outside (0,1)", damping)
	}
	n := g.n
	m := make([][]float64, n)
	base := (1 - damping) / float64(n)
	for u := 0; u < n; u++ {
		m[u] = make([]float64, n)
		deg := g.OutDegree(u)
		if deg == 0 {
			for v := 0; v < n; v++ {
				m[u][v] = base + damping/float64(n)
			}
			continue
		}
		for v := 0; v < n; v++ {
			m[u][v] = base
		}
		share := damping / float64(deg)
		for _, v := range g.Neighbors(u) {
			m[u][v] += share
		}
	}
	return m, nil
}

// L1Distance returns the L1 norm of the difference of two vectors, used by
// PageRank convergence tests.
func L1Distance(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
