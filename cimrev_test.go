package cimrev

// Facade integration tests: exercise the public API end to end the way a
// downstream user would.

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/isa"
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
	fabric, err := NewFabric(DefaultFabricConfig(), ledger, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	net, err := NewMLP("pipe", []int{8, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(net, fabric.Config())
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
	if err := fabric.Stream(plan.InputAddr, in); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[plan.OutputAddr]) != 1 {
		t.Fatalf("pipeline produced %d results", len(out[plan.OutputAddr]))
	}
	if ledger.Total().EnergyPJ <= 0 {
		t.Error("no energy accounted")
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
	if CPU().Name != "cpu" || GPU().Name != "gpu" {
		t.Error("baseline machines misnamed")
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
	ap, err := NewAssociativeProcessor(4, 8, led)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := ap.Write(1, 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := ap.Max(); v != 10 {
		t.Errorf("AP max = %d, want 10", v)
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
		if _, err := fabric.AddUnit(a, cim.KindCrossbar, 1); err != nil {
			t.Fatal(err)
		}
		if err := fabric.Configure(a, isa.FuncMVM, [][]float64{{1}}); err != nil {
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
	mon, err := NewWearMonitor(fabric, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh unit is not at risk (default endurance is 1e9 writes), so
	// it keeps serving; a failure still recovers onto its spare.
	rep, err := mon.Inspect(primary)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AtRisk {
		t.Errorf("fresh unit at risk: %+v", rep)
	}
	if recovered, err := guard.Fail(primary); err != nil || !recovered {
		t.Errorf("Fail = %v, %v; want recovery onto the spare", recovered, err)
	}
}

func TestFacadeCluster(t *testing.T) {
	cluster, err := NewDPECluster(DefaultDPEConfig(), 2, 1.0, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Boards() != 2 {
		t.Errorf("Boards = %d", cluster.Boards())
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
	out, _, err := xb.MVM([]float64{1}, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 0.05 {
		t.Errorf("MVM = %v, want ~0.5", out)
	}
}
