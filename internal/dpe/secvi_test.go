package dpe_test

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/dpe"
	"cimrev/internal/nn"
	"cimrev/internal/vonneumann"
)

// An external test package: vonneumann imports dpe, so a test that prices
// the engine against the roofline machine cannot live inside package dpe.
func TestSectionVILatencyBandShape(t *testing.T) {
	// A large streaming layer: DPE latency must beat the CPU by 10-10^4x
	// (the Section VI band). Use a 512x512 dense layer.
	net, err := nn.NewMLP("mlp", []int{512, 512, 10}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	e, err := dpe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 512)
	for i := range in {
		in[i] = math.Sin(float64(i))
	}
	_, dpeCost, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}

	cpu := vonneumann.CPU()
	k := vonneumann.GEMV(512, 512, 4, 32<<20, false)
	cpuCost, err := cpu.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(cpuCost.LatencyPS) / float64(dpeCost.LatencyPS)
	if ratio < 10 || ratio > 1e4 {
		t.Errorf("CPU/DPE latency ratio = %g, want within Section VI band [10, 1e4]", ratio)
	}
}
