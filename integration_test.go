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
	"cimrev/internal/memristor"
	"cimrev/internal/security"
	"cimrev/internal/service"
)

// TestIntegrationSecureInferenceService threads security + DPE: encrypted
// requests are opened and inspected at the boundary, authorized by
// capability, executed on crossbars, and the response is sealed again.
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

	keys := security.NewKeyRing()
	key, err := keys.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	inspector := security.NewInspector(security.Policy{MaxPayload: 64})
	auth, err := security.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	cap1, err := auth.Mint(0, 0, 3, security.RightExecute)
	if err != nil {
		t.Fatal(err)
	}

	// Client side: seal the request.
	req := &Packet{Dst: Address{Tile: 1}, Stream: 42, Type: 1, Payload: []float64{1, -1, 0.5, 0, 0.25, -0.5, 1, 0}}
	ct, _, err := security.Seal(req, key)
	if err != nil {
		t.Fatal(err)
	}

	// Service side: open, inspect, authorize, execute, seal response.
	got, _, err := security.Open(ct, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := inspector.Inspect(got); err != nil {
		t.Fatal(err)
	}
	if err := auth.Authorize(cap1, got.Dst, security.RightExecute); err != nil {
		t.Fatal(err)
	}
	out, _, err := engine.Infer(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	resp := &Packet{Src: got.Dst, Dst: got.Src, Stream: got.Stream, Type: 1, Payload: out}
	respCT, _, err := security.Seal(resp, key)
	if err != nil {
		t.Fatal(err)
	}

	// Client decrypts and checks the result against software.
	plain, _, err := security.Open(respCT, key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(req.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(plain.Payload[i]-want[i]) > 0.1 {
			t.Errorf("out[%d] = %g, want ~%g", i, plain.Payload[i], want[i])
		}
	}

	// A request outside the capability's tile range is refused.
	if err := auth.Authorize(cap1, Address{Tile: 9}, security.RightExecute); err == nil {
		t.Error("out-of-range request authorized")
	}
}

// TestIntegrationSelfHealingPipeline combines wear monitoring, proactive
// healing, and continued operation: a crossbar pipeline keeps serving
// inference while the healer retires its worn stage to a spare.
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
	if _, err := fabric.AddUnit(src, cim.KindCompute, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.AddUnit(sink, cim.KindCompute, 1); err != nil {
		t.Fatal(err)
	}
	w := [][]float64{{1, 0}, {0, 1}}
	for _, u := range []Address{mvm, spare} {
		if _, err := fabric.AddUnit(u, cim.KindCrossbar, 1); err != nil {
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

	// Age the primary with repeated weight updates.
	for i := 0; i < 30; i++ {
		if _, err := fabric.Reprogram(mvm, w); err != nil {
			t.Fatal(err)
		}
	}

	guard, err := fault.NewGuard(fabric, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.AddSpare(mvm, spare); err != nil {
		t.Fatal(err)
	}
	params := memristor.DefaultParams()
	params.Endurance = 10
	mon, err := service.NewMonitor(fabric, params, 0.8, reg)
	if err != nil {
		t.Fatal(err)
	}
	healer, err := service.NewHealer(mon, guard, reg)
	if err != nil {
		t.Fatal(err)
	}
	retired, err := healer.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) != 1 || retired[0] != mvm {
		t.Fatalf("healer retired %v, want [%v]", retired, mvm)
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
