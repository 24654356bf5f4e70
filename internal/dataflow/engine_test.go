package dataflow

import (
	"strings"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/packet"
)

// buildPipeline creates src -> relu -> sink(accumulate).
func buildPipeline(t *testing.T) (*Graph, NodeID, NodeID, NodeID) {
	t.Helper()
	g := NewGraph()
	src := mustNode(t, g, "src", addr(1), Forward())
	relu := mustNode(t, g, "relu", addr(2), ReLU())
	sink := mustNode(t, g, "sink", addr(3), Accumulate())
	if err := g.Connect(src, relu); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(relu, sink); err != nil {
		t.Fatal(err)
	}
	return g, src, relu, sink
}

func TestEngineStaticDataflow(t *testing.T) {
	g, src, _, sink := buildPipeline(t)
	led := energy.NewLedger()
	e, err := NewEngine(g, led)
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Inject(src, []float64{1, -2, 3}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	results := out[sink]
	if len(results) != 1 {
		t.Fatalf("sink received %d results, want 1", len(results))
	}
	want := []float64{1, 0, 3} // ReLU clipped -2
	for i := range want {
		if results[0][i] != want[i] {
			t.Errorf("out[%d] = %g, want %g", i, results[0][i], want[i])
		}
	}
	if led.Category("compute").EnergyPJ == 0 {
		t.Error("no compute energy charged")
	}
	if led.Category("network").EnergyPJ == 0 {
		t.Error("no network energy charged")
	}
}

func TestEngineRepeatedExecution(t *testing.T) {
	// Static dataflow executes "over and over again" (Section III.B):
	// same graph, many inputs.
	g, src, _, sink := buildPipeline(t)
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Inject(src, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[sink]) != 5 {
		t.Errorf("sink results = %d, want 5", len(out[sink]))
	}
	// Accumulate state persisted across tokens: final sum is 0+1+2+3+4.
	last := out[sink][4]
	if last[0] != 10 {
		t.Errorf("accumulated = %g, want 10", last[0])
	}
	// Outputs reset between runs.
	out2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 0 {
		t.Errorf("second Run returned stale outputs: %v", out2)
	}
}

func TestEngineFanOut(t *testing.T) {
	g := NewGraph()
	src := mustNode(t, g, "src", addr(1), Forward())
	a := mustNode(t, g, "a", addr(2), Forward())
	b := mustNode(t, g, "b", addr(3), Forward())
	if err := g.Connect(src, a); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, b); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(src, []float64{7}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[a]) != 1 || len(out[b]) != 1 {
		t.Errorf("fan-out results: a=%d b=%d, want 1 each", len(out[a]), len(out[b]))
	}
}

func TestEngineDynamicRouterImplicit(t *testing.T) {
	// Router sends positive-sum payloads to pos, others to neg — routing as
	// "a function of the state in CIM and the input data".
	g := NewGraph()
	var posID, negID NodeID
	router := func(_ *State, p *packet.Packet) []NodeID {
		var sum float64
		for _, v := range p.Payload {
			sum += v
		}
		if sum > 0 {
			return []NodeID{posID}
		}
		return []NodeID{negID}
	}
	src := mustNode(t, g, "classifier", addr(1), Forward())
	posID = mustNode(t, g, "pos", addr(2), Forward())
	negID = mustNode(t, g, "neg", addr(3), Forward())
	n, _ := g.Node(src)
	n.Router = router

	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(src, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(src, []float64{-5}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[posID]) != 1 || len(out[negID]) != 1 {
		t.Errorf("router split: pos=%d neg=%d, want 1 each", len(out[posID]), len(out[negID]))
	}
}

func TestEngineDynamicRouteExplicit(t *testing.T) {
	// The packet pins its own path, skipping static successors entirely.
	g := NewGraph()
	src := mustNode(t, g, "src", addr(1), Forward())
	skip := mustNode(t, g, "skip", addr(2), Forward())
	tgt := mustNode(t, g, "target", addr(3), Forward())
	if err := g.Connect(src, skip); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{
		Dst:     addr(1),
		Type:    packet.TypeData,
		Payload: []float64{42},
		Route:   []packet.Address{addr(3)},
	}
	if err := e.InjectPacket(p); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[tgt]) != 1 {
		t.Errorf("explicit route missed target: %v", out)
	}
	if len(out[skip]) != 0 {
		t.Error("explicit route leaked to static successor")
	}
}

func TestEngineSelfProgramming(t *testing.T) {
	// A program packet reconfigures a forward node into relu and streams
	// data through it — self-programmable dataflow.
	g := NewGraph()
	id := mustNode(t, g, "unit", addr(1), Forward())

	prog := isa.Program{
		{Op: isa.OpConfigure, Unit: addr(1), Fn: isa.FuncReLU},
		{Op: isa.OpStream, Unit: addr(1), Data: []float64{-3, 4}},
		{Op: isa.OpHalt},
	}
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}

	led := energy.NewLedger()
	e, err := NewEngine(g, led)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPacket(&packet.Packet{Dst: addr(1), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out[id]
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	if res[0][0] != 0 || res[0][1] != 4 {
		t.Errorf("reprogrammed node output = %v, want [0 4]", res[0])
	}
	if led.Category("reconfigure").EnergyPJ == 0 {
		t.Error("no reconfiguration cost charged")
	}
}

func TestEngineSelfProgrammingConnect(t *testing.T) {
	g := NewGraph()
	a := mustNode(t, g, "a", addr(1), Forward())
	b := mustNode(t, g, "b", addr(2), Forward())
	_ = a

	prog := isa.Program{
		{Op: isa.OpConnect, Unit: addr(1), Unit2: addr(2)},
		{Op: isa.OpStream, Unit: addr(1), Data: []float64{1}},
		{Op: isa.OpHalt},
	}
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPacket(&packet.Packet{Dst: addr(1), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[b]) != 1 {
		t.Errorf("data did not flow over program-created edge: %v", out)
	}
}

func TestEngineProgramErrors(t *testing.T) {
	g := NewGraph()
	mustNode(t, g, "a", addr(1), Forward())
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt code fails the run.
	if err := e.InjectPacket(&packet.Packet{Dst: addr(1), Type: packet.TypeProgram, Code: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("corrupt program accepted")
	}

	// Program referencing a missing unit fails.
	prog := isa.Program{
		{Op: isa.OpConfigure, Unit: addr(9), Fn: isa.FuncReLU},
		{Op: isa.OpHalt},
	}
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPacket(&packet.Packet{Dst: addr(1), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("program with missing unit accepted")
	}

	// MVM needs fabric hardware; the default factory must reject it.
	prog = isa.Program{
		{Op: isa.OpConfigure, Unit: addr(1), Fn: isa.FuncMVM},
		{Op: isa.OpHalt},
	}
	code, err = prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPacket(&packet.Packet{Dst: addr(1), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "fabric") {
		t.Errorf("MVM via default factory = %v, want fabric error", err)
	}
}

func TestEngineCycleGuard(t *testing.T) {
	g := NewGraph()
	a := mustNode(t, g, "a", addr(1), Forward())
	b := mustNode(t, g, "b", addr(2), Forward())
	if err := g.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(b, a); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, WithMaxSteps(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(a, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("unbounded cycle should hit the step guard")
	}
}

func TestEngineDroppedTokenForRemovedNode(t *testing.T) {
	g, src, relu, sink := buildPipeline(t)
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(src, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Remove the middle node while the token is queued at src: the
	// forwarded token is dropped at the missing node (containment), not an
	// engine error. Note RemoveNode also unlinks src->relu, so the output
	// lands at src itself (now a sink).
	if err := g.RemoveNode(relu); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[sink]) != 0 {
		t.Error("token traversed a removed node")
	}
}

func TestEngineInjectErrors(t *testing.T) {
	g := NewGraph()
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(0, []float64{1}); err == nil {
		t.Error("inject into empty graph succeeded")
	}
	if err := e.InjectPacket(&packet.Packet{Dst: addr(7)}); err == nil {
		t.Error("inject packet for unknown address succeeded")
	}
	if _, err := NewEngine(nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestEngineCustomEdgeCoster(t *testing.T) {
	g, src, _, _ := buildPipeline(t)
	led := energy.NewLedger()
	called := 0
	e, err := NewEngine(g, led, WithEdgeCoster(func(from, to NodeID, nbytes int) energy.Cost {
		called++
		return energy.Cost{LatencyPS: 1, EnergyPJ: 100}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(src, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if called != 2 { // src->relu, relu->sink
		t.Errorf("edge coster called %d times, want 2", called)
	}
	if led.Category("network").EnergyPJ != 200 {
		t.Errorf("network energy = %g, want 200", led.Category("network").EnergyPJ)
	}
}

// Property: execution is deterministic — the same graph and injection
// sequence produce identical outputs and identical ledger totals.
func TestEngineDeterminism(t *testing.T) {
	build := func() (*Graph, NodeID, NodeID) {
		g := NewGraph()
		src := mustNode(t, g, "src", addr(1), Forward())
		h1 := mustNode(t, g, "h1", addr(2), ReLU())
		h2 := mustNode(t, g, "h2", addr(3), Sigmoid())
		sink := mustNode(t, g, "sink", addr(4), Accumulate())
		for _, e := range [][2]NodeID{{src, h1}, {src, h2}, {h1, sink}, {h2, sink}} {
			if err := g.Connect(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g, src, sink
	}
	run := func() ([][]float64, energy.Cost) {
		g, src, sink := build()
		led := energy.NewLedger()
		e, err := NewEngine(g, led)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := e.Inject(src, []float64{float64(i) - 4.5, float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out[sink], led.Total()
	}
	out1, cost1 := run()
	out2, cost2 := run()
	if cost1 != cost2 {
		t.Errorf("costs differ: %v vs %v", cost1, cost2)
	}
	if len(out1) != len(out2) {
		t.Fatalf("output counts differ: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		for j := range out1[i] {
			if out1[i][j] != out2[i][j] {
				t.Fatalf("outputs diverge at %d/%d", i, j)
			}
		}
	}
}
