package dpe

import (
	"math/rand"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/parallel"
)

// clusterForReprogram builds a small loaded cluster plus a second
// same-topology network with different weights.
func clusterForReprogram(t *testing.T, boards int) (*Cluster, *nn.Network) {
	t.Helper()
	cl, err := NewCluster(testConfig(), boards, 5, 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	netA := mlp(t, 48, 32, 10)
	if _, err := cl.Load(netA); err != nil {
		t.Fatal(err)
	}
	netB, err := nn.NewMLP("mlp-v2", []int{48, 32, 10}, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	return cl, netB
}

// TestClusterReload pins a model update across a multi-board cluster: a
// Load of the loaded cluster rewrites every board in parallel, so its
// latency is one board's re-Load latency (the max over boards, not the
// sum) and its energy is boards x that board's energy; afterwards the
// cluster serves the new weights, == to a fresh cluster loaded with them.
func TestClusterReload(t *testing.T) {
	const boards = 3
	cl, netB := clusterForReprogram(t, boards)
	full, err := cl.Load(netB)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same update on a single standalone board.
	eng, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(mlp(t, 48, 32, 10)); err != nil {
		t.Fatal(err)
	}
	single, err := eng.Load(netB)
	if err != nil {
		t.Fatal(err)
	}
	if full.LatencyPS != single.LatencyPS {
		t.Errorf("cluster re-Load latency %d ps != single-board %d ps (boards must overlap: max, not sum)",
			full.LatencyPS, single.LatencyPS)
	}
	if want := single.EnergyPJ * boards; full.EnergyPJ != want {
		t.Errorf("cluster re-Load energy %g pJ, want %g (boards x single)", full.EnergyPJ, want)
	}

	fresh, err := NewCluster(testConfig(), boards, 5, 12.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Load(netB); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	inputs := make([][]float64, 6)
	for i := range inputs {
		inputs[i] = make([]float64, 48)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	got, _, err := cl.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("input %d output[%d] = %g, want %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestClusterReloadParallelEquivalence: a re-Load's board costs fold in
// board order, so the cluster's cost is bit-identical at pool widths 1, 4
// and 16.
func TestClusterReloadParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	run := func(width int) energy.Cost {
		parallel.SetWidth(width)
		cl, netB := clusterForReprogram(t, 3)
		cost, err := cl.Load(netB)
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	ref := run(1)
	for _, w := range []int{4, 16} {
		if got := run(w); got != ref {
			t.Errorf("width %d cost %v != serial %v", w, got, ref)
		}
	}
}
