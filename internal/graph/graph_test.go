package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0, nil); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewGraph(2, [][]int{{5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewGraph(1, [][]int{{}, {}}); err == nil {
		t.Error("adjacency longer than n accepted")
	}
}

func TestGraphBasics(t *testing.T) {
	g, err := NewGraph(3, [][]int{{1, 2}, {2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 3 || g.EdgesCount() != 3 {
		t.Errorf("nodes/edges = %d/%d", g.Nodes(), g.EdgesCount())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(2) != 0 {
		t.Error("degrees wrong")
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("neighbors = %v", nb)
	}
}

func TestRandomPreferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomPreferential(200, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 200 {
		t.Errorf("nodes = %d", g.Nodes())
	}
	if g.EdgesCount() == 0 {
		t.Fatal("no edges generated")
	}
	// Preferential attachment concentrates in-degree: node 0 should be
	// far more popular than a late node.
	indeg := make([]int, 200)
	for u := 0; u < 200; u++ {
		for _, v := range g.Neighbors(u) {
			indeg[v]++
		}
	}
	if indeg[0] <= indeg[150] {
		t.Errorf("no preferential skew: indeg[0]=%d indeg[150]=%d", indeg[0], indeg[150])
	}
	if _, err := RandomPreferential(1, 2, rng); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RandomPreferential(10, 0, rng); err == nil {
		t.Error("outDeg=0 accepted")
	}
	if _, err := RandomPreferential(10, 2, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestRandomPreferentialDeterministic(t *testing.T) {
	g1, err := RandomPreferential(50, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomPreferential(50, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if g1.EdgesCount() != g2.EdgesCount() {
		t.Error("same seed produced different graphs")
	}
}

func TestPageRankProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := RandomPreferential(100, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	rank, flops, err := g.PageRank(0.85, 30)
	if err != nil {
		t.Fatal(err)
	}
	if flops <= 0 {
		t.Error("no flops counted")
	}
	var sum float64
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %g, want 1", sum)
	}
	// Node 0 (most popular under preferential attachment) outranks a
	// typical late node.
	if rank[0] <= rank[90] {
		t.Errorf("rank[0]=%g not above rank[90]=%g", rank[0], rank[90])
	}
}

func TestPageRankValidation(t *testing.T) {
	g, err := NewGraph(2, [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.PageRank(0, 10); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, _, err := g.PageRank(1, 10); err == nil {
		t.Error("damping 1 accepted")
	}
	if _, _, err := g.PageRank(0.85, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestTransitionMatrixMatchesPageRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := RandomPreferential(30, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := g.PageRank(0.85, 25)
	if err != nil {
		t.Fatal(err)
	}

	m, err := g.TransitionMatrix(0.85)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Nodes()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < 25; it++ {
		next := make([]float64, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				next[v] += m[u][v] * rank[u]
			}
		}
		rank = next
	}
	if d := L1Distance(rank, want); d > 1e-9 {
		t.Errorf("matrix iteration diverges from PageRank by %g", d)
	}
}

func TestTransitionMatrixValidation(t *testing.T) {
	g, err := NewGraph(2, [][]int{{1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TransitionMatrix(0); err == nil {
		t.Error("damping 0 accepted")
	}
	// Rows are stochastic (sum to 1), including the dangling node row.
	m, err := g.TransitionMatrix(0.85)
	if err != nil {
		t.Fatal(err)
	}
	for u, row := range m {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %g", u, sum)
		}
	}
}

func TestL1Distance(t *testing.T) {
	if d := L1Distance([]float64{1, 2}, []float64{0, 4}); d != 3 {
		t.Errorf("L1 = %g, want 3", d)
	}
}
