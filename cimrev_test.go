package cimrev

// Facade integration tests: exercise the public API end to end the way a
// downstream user would.

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/isa"
	"cimrev/internal/nn"
)

func TestFacadeTrainDeployInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs, labels, err := MakeBlobs(180, 3, 8, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewMLP("facade", []int{8, 16, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(net, inputs, labels, 15, 0.05, rng); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(net, inputs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("training accuracy %.2f", acc)
	}

	engine, err := NewDPE(DefaultDPEConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Load(net); err != nil {
		t.Fatal(err)
	}
	out, cost, err := engine.Infer(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || cost.LatencyPS <= 0 {
		t.Errorf("inference out=%v cost=%v", out, cost)
	}
}

func TestFacadeFabricPipeline(t *testing.T) {
	ledger := NewLedger()
	cfg := DefaultFabricConfig()
	fabric, err := NewFabric(cfg, ledger, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	net, err := NewMLP("pipe", []int{8, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyPlan(plan, fabric); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 8)
	for i := range in {
		in[i] = math.Cos(float64(i))
	}
	if err := fabric.Stream(plan.Placements[0].Addr, in); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	sink := plan.Placements[len(plan.Placements)-1].Addr
	if len(out[sink]) != 1 {
		t.Fatalf("pipeline produced %d results", len(out[sink]))
	}
	if ledger.Total().EnergyPJ <= 0 {
		t.Error("no energy accounted")
	}
	// The compiled pipeline computes what the engine does on the same arrays.
	dcfg := DefaultDPEConfig()
	dcfg.Crossbar, dcfg.Seed = cfg.Crossbar, cfg.Seed
	engine, err := NewDPE(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Load(net); err != nil {
		t.Fatal(err)
	}
	want, _, err := engine.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out[sink][0] {
		if v != want[i] {
			t.Errorf("fabric out[%d] = %v, engine %v", i, v, want[i])
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	pts := Fig2Series()
	if len(pts) < 10 {
		t.Errorf("Fig2Series = %d points", len(pts))
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Errorf("Table2 = %d rows", len(rows))
	}
	if CPU().PeakFlops >= GPU().PeakFlops {
		t.Error("baseline machines swapped: the CPU out-computes the GPU")
	}
}

func TestFacadeAssociative(t *testing.T) {
	led := NewLedger()
	tc, err := NewTCAM(8, 16, led)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Store(0, 0xAB, 0xFF); err != nil {
		t.Fatal(err)
	}
	hits, _ := tc.Match(0xAB, 0xFF)
	if len(hits) != 1 {
		t.Errorf("hits = %v", hits)
	}
}

func TestFacadeSelfHealing(t *testing.T) {
	fabric, err := NewFabric(DefaultFabricConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	primary := Address{Tile: 0}
	spare := Address{Tile: 0, Unit: 1}
	for _, a := range []Address{primary, spare} {
		if _, err := fabric.AddUnit(a, cim.KindCrossbar); err != nil {
			t.Fatal(err)
		}
		one, err := nn.NewDenseCols([][]float64{{1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := fabric.Configure(a, isa.FuncMVM, one); err != nil {
			t.Fatal(err)
		}
	}
	guard, err := NewGuard(fabric, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.AddSpare(primary, spare); err != nil {
		t.Fatal(err)
	}
	if recovered, err := guard.Fail(primary); err != nil || !recovered {
		t.Errorf("Fail = %v, %v; want recovery onto the spare", recovered, err)
	}
}

func TestFacadeCrossbar(t *testing.T) {
	xb, err := NewCrossbar(DefaultCrossbarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program([][]float64{{0.5}}); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	if _, err := xb.MVMInto(out, []float64{1}, NoNoise); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 0.05 {
		t.Errorf("MVM = %v, want ~0.5", out)
	}
}
