package cimrev

// Cross-subsystem integration tests: whole-system scenarios that thread
// multiple packages together the way a deployment would.

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/fault"
	"cimrev/internal/isa"
	"cimrev/internal/nn"
	"cimrev/internal/security"
)

// TestIntegrationSecureInferenceService threads security + DPE: requests
// are inspected at the boundary against the ingress policy, executed on
// crossbars, and oversized ones never reach the engine.
func TestIntegrationSecureInferenceService(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewMLP("svc", []int{8, 16, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewDPE(DefaultDPEConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Load(net); err != nil {
		t.Fatal(err)
	}
	inspector := security.NewInspector(security.Policy{MaxPayload: 8})

	req := &Packet{Dst: Address{Tile: 1}, Stream: 42, Type: 1, Payload: []float64{1, -1, 0.5, 0, 0.25, -0.5, 1, 0}}
	if err := inspector.Inspect(req); err != nil {
		t.Fatal(err)
	}
	out, _, err := engine.Infer(req.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(req.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 0.1 {
			t.Errorf("out[%d] = %g, want ~%g", i, out[i], want[i])
		}
	}

	// A request over the payload limit is refused at the boundary.
	big := &Packet{Dst: Address{Tile: 1}, Type: 1, Payload: make([]float64, 9)}
	if err := inspector.Inspect(big); err == nil {
		t.Error("oversized request passed inspection")
	}
}

// TestIntegrationSelfHealingPipeline combines failover and continued
// operation: a crossbar pipeline keeps serving inference after its failed
// stage is retired to a spare.
func TestIntegrationSelfHealingPipeline(t *testing.T) {
	cfg := DefaultFabricConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 8, 8
	reg := NewRegistry()
	fabric, err := NewFabric(cfg, NewLedger(), reg)
	if err != nil {
		t.Fatal(err)
	}
	src := Address{Tile: 0}
	mvm := Address{Tile: 1}
	spare := Address{Tile: 1, Unit: 1}
	sink := Address{Tile: 2}
	if _, err := fabric.AddUnit(src, cim.KindCompute); err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.AddUnit(sink, cim.KindCompute); err != nil {
		t.Fatal(err)
	}
	w, err := nn.NewDenseCols([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []Address{mvm, spare} {
		if _, err := fabric.AddUnit(u, cim.KindCrossbar); err != nil {
			t.Fatal(err)
		}
		if err := fabric.Configure(u, isa.FuncMVM, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Connect(src, mvm); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Connect(mvm, sink); err != nil {
		t.Fatal(err)
	}

	guard, err := fault.NewGuard(fabric, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.AddSpare(mvm, spare); err != nil {
		t.Fatal(err)
	}
	if recovered, err := guard.Fail(mvm); err != nil || !recovered {
		t.Fatalf("Fail = %v, %v; want recovery onto the spare", recovered, err)
	}

	// The pipeline still serves through the spare.
	if err := fabric.Stream(src, []float64{0.5, -0.25}); err != nil {
		t.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out[sink]
	if len(res) != 1 {
		t.Fatalf("results after healing = %d", len(res))
	}
	if math.Abs(res[0][0]-0.5) > 0.1 || math.Abs(res[0][1]+0.25) > 0.1 {
		t.Errorf("post-healing output = %v, want ~[0.5 -0.25]", res[0])
	}
}
