package cimrev_test

import (
	"fmt"
	"math/rand"
	"sort"

	"cimrev"
	"cimrev/internal/graph"
	"cimrev/internal/vonneumann"
)

const (
	pageRankNodes      = 96
	pageRankOutDegree  = 4
	pageRankDamping    = 0.85
	pageRankIterations = 25
)

// Graph analytics (Section II.B memory-centric computing): PageRank over a
// preferential-attachment graph, executed two ways — as iterated
// matrix-vector products on Dot Product Engine crossbars (the graph's
// transition matrix is stationary in the arrays) and as classic software on
// the CPU model. The ranking must agree; the costs diverge.
func Example_graphAnalytics() {
	if err := graphAnalytics(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// graph: 96 nodes, 347 edges
	// top-5 (software): [0 2 4 1 7]
	// top-5 (CIM):      [0 2 1 4 7]
	// top-5 overlap: 5/5, L1 distance 0.0937
	//
	// CIM: program 9.6ms / 553nJ, 25 iterations in 20.1us / 135nJ
	// CPU: 36.9us / 1.49mJ
	// iteration speedup: 1.8x, energy: 11022.7x
	//
	// (the write-asymmetry caveat: programming the matrix costs more than
	//  many iterations of reading it — stationary graphs amortize, churning
	//  graphs do not)
}

func graphAnalytics() error {
	rng := rand.New(rand.NewSource(11))
	g, err := graph.RandomPreferential(pageRankNodes, pageRankOutDegree, rng)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.Nodes(), g.EdgesCount())

	// Software reference.
	swRank, flops, err := g.PageRank(pageRankDamping, pageRankIterations)
	if err != nil {
		return err
	}

	// CIM execution: the damped transition matrix lives in crossbars;
	// each iteration is one MVM.
	m, err := g.TransitionMatrix(pageRankDamping)
	if err != nil {
		return err
	}
	xcfg := cimrev.DefaultCrossbarConfig()
	xcfg.Functional = true
	tile, err := cimrev.NewCrossbarTile(xcfg)
	if err != nil {
		return err
	}
	programCost, err := tile.Program(m)
	if err != nil {
		return err
	}

	rank := make([]float64, pageRankNodes)
	for i := range rank {
		rank[i] = 1.0 / pageRankNodes
	}
	total := cimrev.Cost{}
	for it := 0; it < pageRankIterations; it++ {
		next, cost, err := tile.MVM(rank, cimrev.NoNoise)
		if err != nil {
			return err
		}
		total = total.Seq(cost)
		// Renormalize to absorb analog quantization drift.
		var sum float64
		for _, v := range next {
			sum += v
		}
		for i := range next {
			next[i] /= sum
		}
		rank = next
	}

	// Rankings agree?
	swTop := topK(swRank, 5)
	cimTop := topK(rank, 5)
	fmt.Printf("top-5 (software): %v\n", swTop)
	fmt.Printf("top-5 (CIM):      %v\n", cimTop)
	overlap := 0
	for _, a := range swTop {
		for _, b := range cimTop {
			if a == b {
				overlap++
			}
		}
	}
	fmt.Printf("top-5 overlap: %d/5, L1 distance %.4f\n",
		overlap, graph.L1Distance(swRank, rank))

	// Cost comparison: CPU streams the matrix every iteration; the DPE
	// keeps it stationary.
	cpuCost, err := cimrev.CPU().Run(vonneumann.Kernel{
		Flops: flops,
		Bytes: float64(pageRankIterations) * float64(pageRankNodes*pageRankNodes) * 8,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nCIM: program %v, %d iterations in %v\n", programCost, pageRankIterations, total)
	fmt.Printf("CPU: %v\n", cpuCost)
	fmt.Printf("iteration speedup: %.1fx, energy: %.1fx\n",
		float64(cpuCost.LatencyPS)/float64(total.LatencyPS),
		cpuCost.EnergyPJ/total.EnergyPJ)
	fmt.Println("\n(the write-asymmetry caveat: programming the matrix costs more than")
	fmt.Println(" many iterations of reading it — stationary graphs amortize, churning")
	fmt.Println(" graphs do not)")
	return nil
}

// topK returns the indices of rank's k largest values, largest first.
func topK(rank []float64, k int) []int {
	idx := make([]int, len(rank))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rank[idx[a]] > rank[idx[b]] })
	return idx[:k]
}
