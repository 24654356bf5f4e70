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

	// CNN layers are rejected (DPE orchestrates them instead): the ISA has
	// no convolution operand.
	cnn, err := nn.NewLeNetStyle("cnn", 8, 16, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(cnn, testFabricConfig())
	if err == nil {
		t.Fatal("CNN accepted by static pipeline compiler")
	}
	if !strings.Contains(err.Error(), "layer 0 ("+cnn.Layers[0].Name()+") needs a convolution operand") {
		t.Errorf("error %q does not name the layer and why", err)
	}
}

func TestCompileAcceptsBias(t *testing.T) {
	// A crossbar unit adds its layer's bias, so a biased Dense layer
	// compiles, and its placement holds the network's own layer.
	net := smallMLP(t)
	dense := net.Layers[2].(*nn.Dense)
	dense.B[1] = 1.0
	plan, err := Compile(net, testFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Placements[2].Layer; got != dense {
		t.Errorf("placement 2 holds layer %p, the network's is %p", got, dense)
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

// TestApplyRejectedPlanWritesNothing: a plan with a non-finite weight in its
// last crossbar layer is rejected before any unit is added, so the fabric
// holds none of its units and the mended plan then applies and runs.
func TestApplyRejectedPlanWritesNothing(t *testing.T) {
	net := smallMLP(t)
	w := net.Layers[2].(*nn.Dense).W
	w[1][3] = math.NaN()
	cfg := testFabricConfig()
	plan, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := cim.NewFabric(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plan, fabric); err == nil {
		t.Fatal("a plan with a NaN weight applied")
	}
	for _, pl := range plan.Placements {
		if _, err := fabric.Unit(pl.Addr); err == nil {
			t.Errorf("the rejected plan left unit %v (%s) on the fabric", pl.Addr, pl.LayerName)
		}
	}
	w[1][3] = 0.5
	if err := Apply(plan, fabric); err != nil {
		t.Fatalf("the mended plan: %v", err)
	}
	if err := fabric.Stream(plan.Placements[0].Addr, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := out[plan.Placements[3].Addr]; len(got) != 1 {
		t.Errorf("the mended plan gave %d results, want 1", len(got))
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
