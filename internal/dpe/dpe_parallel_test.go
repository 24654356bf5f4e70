package dpe

import (
	"math/rand"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/parallel"
)

// batchRun loads a fresh engine and runs a batch at the given pool width,
// returning everything the equivalence tests compare.
func batchRun(t *testing.T, width, batch int) ([][]float64, energy.Cost, energy.Cost) {
	t.Helper()
	parallel.SetWidth(width)

	net := mlp(t, 96, 80, 24, 10) // spans multiple 64x64 tiles per layer
	eng, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	progCost, err := eng.Load(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inputs := make([][]float64, batch)
	for i := range inputs {
		inputs[i] = make([]float64, 96)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	outs, cost, err := eng.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return outs, progCost, cost
}

// TestInferBatchParallelEquivalence is the DPE half of the determinism
// contract: batch outputs, programming cost, and batch energy/latency must
// be bit-identical at pool widths 1, 4, and 16.
func TestInferBatchParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	const batch = 17 // deliberately not a multiple of any width
	refOuts, refProg, refCost := batchRun(t, 1, batch)
	for _, w := range []int{4, 16} {
		outs, prog, cost := batchRun(t, w, batch)
		if prog != refProg {
			t.Fatalf("width %d: program cost %v != serial %v", w, prog, refProg)
		}
		if cost != refCost {
			t.Fatalf("width %d: batch cost %v != serial %v", w, cost, refCost)
		}
		if len(outs) != len(refOuts) {
			t.Fatalf("width %d: %d outputs, want %d", w, len(outs), len(refOuts))
		}
		for i := range outs {
			for j := range outs[i] {
				if outs[i][j] != refOuts[i][j] {
					t.Fatalf("width %d: out[%d][%d] = %v != serial %v",
						w, i, j, outs[i][j], refOuts[i][j])
				}
			}
		}
	}
}

// noisyTestConfig is the shared configuration for the noisy equivalence
// tests: honest bit-serial pipeline with read noise live.
func noisyTestConfig() Config {
	cfg := testConfig()
	cfg.Crossbar.Functional = false
	cfg.Crossbar.ReadNoise = 0.01
	cfg.Seed = 5
	return cfg
}

func noisyTestInputs(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(21))
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	return inputs
}

// TestInferBatchNoisyParallelEquivalence: with counter-based noise each
// batch item draws from its own derived stream (keyed by inference number,
// not by goroutine schedule), so noisy batches fan out across the pool and
// still produce bit-identical outputs at widths 1, 4, and 16. This test
// replaced the old sequential-fallback test when the fallback branch was
// deleted.
func TestInferBatchNoisyParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	run := func(width int) [][]float64 {
		parallel.SetWidth(width)
		eng, err := New(noisyTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load(mlp(t, 32, 16, 8)); err != nil {
			t.Fatal(err)
		}
		outs, _, err := eng.InferBatch(noisyTestInputs(6, 32))
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	ref := run(1)
	for _, w := range []int{4, 16} {
		got := run(w)
		for i := range got {
			for j := range got[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("width %d: noisy out[%d][%d] = %v != serial %v",
						w, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestInferBatchNoisyMatchesSerialInfer: the noise tree is keyed by
// inference sequence number, so batch item i must be bit-identical to the
// i-th Infer call on a freshly loaded engine — batching is purely a
// wall-clock optimization, never a semantic one.
func TestInferBatchNoisyMatchesSerialInfer(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	parallel.SetWidth(8)

	inputs := noisyTestInputs(6, 32)

	engA, err := New(noisyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engA.Load(mlp(t, 32, 16, 8)); err != nil {
		t.Fatal(err)
	}
	batchOuts, _, err := engA.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}

	engB, err := New(noisyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engB.Load(mlp(t, 32, 16, 8)); err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		out, _, err := engB.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range out {
			if out[j] != batchOuts[i][j] {
				t.Fatalf("item %d col %d: Infer %v != InferBatch %v",
					i, j, out[j], batchOuts[i][j])
			}
		}
	}
}

// TestReprogramParallelEquivalence: a same-shape re-Load's layer costs
// fold in layer order, so its total is bit-identical at pool widths 1, 4
// and 16.
func TestReprogramParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	run := func(width int) energy.Cost {
		parallel.SetWidth(width)
		eng, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Load(mlp(t, 80, 40, 12)); err != nil {
			t.Fatal(err)
		}
		// Same-topology replacement weights.
		cost, err := eng.Load(mlpSeeded(t, 3, 80, 40, 12))
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	ref := run(1)
	for _, w := range []int{4, 16} {
		if cost := run(w); cost != ref {
			t.Fatalf("width %d: reprogram cost %v != serial %v", w, cost, ref)
		}
	}
}
