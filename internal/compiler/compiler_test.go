package compiler

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/nn"
)

func testFabricConfig() cim.Config {
	cfg := cim.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 32, 32
	return cfg
}

func smallMLP(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("test-mlp", []int{8, 16, 4}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCompilePlacements(t *testing.T) {
	net := smallMLP(t)
	plan, err := Compile(net, testFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	// MLP 8-16-4: dense, relu, dense, softmax = 4 placements.
	if len(plan.Placements) != 4 {
		t.Fatalf("placements = %d, want 4", len(plan.Placements))
	}
	if plan.Placements[0].Kind != cim.KindCrossbar || plan.Placements[0].Fn != isa.FuncMVM {
		t.Errorf("first placement = %v/%v, want crossbar/mvm", plan.Placements[0].Kind, plan.Placements[0].Fn)
	}
	if plan.Placements[1].Fn != isa.FuncReLU {
		t.Errorf("second placement fn = %v, want relu", plan.Placements[1].Fn)
	}
	if plan.Placements[3].Fn != isa.FuncSoftmax {
		t.Errorf("last placement fn = %v, want softmax", plan.Placements[3].Fn)
	}
	// Consecutive layers on consecutive tiles (locality).
	for i := 1; i < len(plan.Placements); i++ {
		prev, cur := plan.Placements[i-1].Addr.Tile, plan.Placements[i].Addr.Tile
		if int(cur) != (int(prev)+1)%(4*4) {
			t.Errorf("stage %d tile %d does not follow %d", i, cur, prev)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, testFabricConfig()); err == nil {
		t.Error("nil network accepted")
	}
	badCfg := testFabricConfig()
	badCfg.MeshW = 0
	if _, err := Compile(smallMLP(t), badCfg); err == nil {
		t.Error("bad fabric config accepted")
	}

	// CNN layers are rejected (DPE orchestrates them instead).
	cnn, err := nn.NewLeNetStyle("cnn", 8, 16, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(cnn, testFabricConfig()); err == nil {
		t.Error("CNN accepted by static pipeline compiler")
	}
}

func TestCompileRejectsBias(t *testing.T) {
	// The crossbar MVM has no bias term, so a biased Dense layer cannot be
	// lowered without changing the network's output.
	net := smallMLP(t)
	dense := net.Layers[2].(*nn.Dense)
	dense.B[1] = 1.0
	_, err := Compile(net, testFabricConfig())
	if err == nil {
		t.Fatal("Dense layer with a nonzero bias compiled")
	}
	if !strings.Contains(err.Error(), "layer 2 ("+dense.Name()+")") {
		t.Errorf("error %q does not name the layer", err)
	}
}

func TestApplyAndRunMatchesSoftware(t *testing.T) {
	net := smallMLP(t)
	cfg := testFabricConfig()
	plan, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	led := energy.NewLedger()
	fabric, err := cim.NewFabric(cfg, led, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plan, fabric); err != nil {
		t.Fatal(err)
	}

	in := make([]float64, 8)
	for i := range in {
		in[i] = math.Sin(float64(i) + 0.5)
	}
	if err := fabric.Stream(plan.Placements[0].Addr, in); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := out[plan.Placements[len(plan.Placements)-1].Addr]
	if len(got) != 1 {
		t.Fatalf("fabric results = %d, want 1", len(got))
	}

	want, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	// Analog quantization moves probabilities slightly; classification and
	// coarse values must agree.
	argmax := func(v []float64) int {
		best := 0
		for i := range v {
			if v[i] > v[best] {
				best = i
			}
		}
		return best
	}
	if argmax(got[0]) != argmax(want) {
		t.Errorf("fabric class %d != software class %d (%v vs %v)",
			argmax(got[0]), argmax(want), got[0], want)
	}
	for i := range want {
		if math.Abs(got[0][i]-want[i]) > 0.15 {
			t.Errorf("prob[%d] = %g, want ~%g", i, got[0][i], want[i])
		}
	}
	if led.Category("program").LatencyPS == 0 {
		t.Error("no programming cost charged")
	}
}

func TestApplyErrors(t *testing.T) {
	if err := Apply(nil, nil); err == nil {
		t.Error("nil plan accepted")
	}
	net := smallMLP(t)
	cfg := testFabricConfig()
	plan, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Applying twice collides on unit addresses.
	fabric, err := cim.NewFabric(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plan, fabric); err != nil {
		t.Fatal(err)
	}
	if err := Apply(plan, fabric); err == nil {
		t.Error("double apply accepted")
	}
}
