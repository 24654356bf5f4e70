package cim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/metrics"
	"cimrev/internal/packet"
)

// addUnits adds a compute unit at each address and configures it with the
// matching function.
func addUnits(t *testing.T, f *Fabric, units []packet.Address, fns ...isa.Function) {
	t.Helper()
	for i, a := range units {
		if _, err := f.AddUnit(a, KindCompute); err != nil {
			t.Fatal(err)
		}
		if err := f.Configure(a, fns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
}

// connect wires each pair of addresses, first to second.
func connect(t *testing.T, f *Fabric, edges ...[2]packet.Address) {
	t.Helper()
	for _, e := range edges {
		if err := f.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// pipeline builds src (forward) -> relu -> sink (accumulate) on three
// compute units, one tile apart, and returns their addresses.
func pipeline(t *testing.T, f *Fabric) (src, relu, sink packet.Address) {
	t.Helper()
	src, relu, sink = addr(0, 0), addr(1, 0), addr(2, 0)
	addUnits(t, f, []packet.Address{src, relu, sink}, isa.FuncForward, isa.FuncReLU, isa.FuncAccumulate)
	connect(t, f, [2]packet.Address{src, relu}, [2]packet.Address{relu, sink})
	return src, relu, sink
}

func run(t *testing.T, f *Fabric) map[packet.Address][][]float64 {
	t.Helper()
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFabricStaticDataflow(t *testing.T) {
	f, led := newFabric(t)
	src, _, sink := pipeline(t, f)
	if err := f.Stream(src, []float64{1, -2, 3}); err != nil {
		t.Fatal(err)
	}
	results := run(t, f)[sink]
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

func TestFabricRepeatedExecution(t *testing.T) {
	// Static dataflow executes "over and over again" (Section III.B):
	// same units, many inputs.
	f, _ := newFabric(t)
	src, _, sink := pipeline(t, f)
	for i := 0; i < 5; i++ {
		if err := f.Stream(src, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	out := run(t, f)
	if len(out[sink]) != 5 {
		t.Fatalf("sink results = %d, want 5", len(out[sink]))
	}
	// Accumulate state persisted across tokens: final sum is 0+1+2+3+4.
	if last := out[sink][4]; last[0] != 10 {
		t.Errorf("accumulated = %g, want 10", last[0])
	}
	// Outputs reset between runs.
	if out2 := run(t, f); len(out2) != 0 {
		t.Errorf("second Run returned stale outputs: %v", out2)
	}
}

func TestFabricFanOut(t *testing.T) {
	f, _ := newFabric(t)
	src, a, b := addr(0, 0), addr(1, 0), addr(2, 0)
	addUnits(t, f, []packet.Address{src, a, b}, isa.FuncForward, isa.FuncForward, isa.FuncForward)
	connect(t, f, [2]packet.Address{src, a}, [2]packet.Address{src, b})
	if err := f.Stream(src, []float64{7}); err != nil {
		t.Fatal(err)
	}
	out := run(t, f)
	if len(out[a]) != 1 || len(out[b]) != 1 {
		t.Errorf("fan-out results: a=%d b=%d, want 1 each", len(out[a]), len(out[b]))
	}
}

func TestFabricFanInDeliversInQueueOrder(t *testing.T) {
	// Two paths of unequal length meet at tile 15: six mesh hops from tile
	// 0, one from tile 14. Run delivers in queue order, so the sink sees
	// the streams in the order they were injected, not the order their
	// hops would land.
	f, _ := newFabric(t)
	far, near, sink := addr(0, 0), addr(14, 0), addr(15, 0)
	addUnits(t, f, []packet.Address{far, near, sink}, isa.FuncForward, isa.FuncForward, isa.FuncForward)
	connect(t, f, [2]packet.Address{far, sink}, [2]packet.Address{near, sink})
	for _, s := range []struct {
		at packet.Address
		v  float64
	}{{far, 1}, {near, 2}} {
		if err := f.Stream(s.at, []float64{s.v}); err != nil {
			t.Fatal(err)
		}
	}
	out := run(t, f)
	if got, want := out[sink], [][]float64{{1}, {2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sink outputs = %v, want %v", got, want)
	}
}

func TestFabricExplicitRoute(t *testing.T) {
	// The packet pins its own path, skipping static successors entirely.
	f, _ := newFabric(t)
	src, skip, target := addr(0, 0), addr(1, 0), addr(2, 0)
	addUnits(t, f, []packet.Address{src, skip, target}, isa.FuncForward, isa.FuncForward, isa.FuncForward)
	connect(t, f, [2]packet.Address{src, skip})
	p := &packet.Packet{Dst: src, Type: packet.TypeData, Payload: []float64{42}, Route: []packet.Address{target}}
	if err := f.InjectPacket(p); err != nil {
		t.Fatal(err)
	}
	out := run(t, f)
	if len(out[target]) != 1 {
		t.Errorf("explicit route missed target: %v", out)
	}
	if len(out[skip]) != 0 {
		t.Error("explicit route leaked to static successor")
	}
}

// TestExplicitRouteThroughDisabledUnit: a route hop onto a failed unit
// drops that token at the containment boundary, as a token already on a
// failed unit is dropped, and the run goes on; a hop to an address that
// never held a unit is an error.
func TestExplicitRouteThroughDisabledUnit(t *testing.T) {
	f, _ := newFabric(t)
	for i := uint16(0); i < 5; i++ {
		if _, err := f.AddUnit(addr(i, 0), KindCompute); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Connect(addr(3, 0), addr(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.DisableUnit(addr(1, 0)); err != nil {
		t.Fatal(err)
	}
	routed := &packet.Packet{Dst: addr(0, 0), Type: packet.TypeData, Payload: []float64{1},
		Route: []packet.Address{addr(1, 0), addr(2, 0)}}
	if err := f.InjectPacket(routed); err != nil {
		t.Fatal(err)
	}
	if err := f.Stream(addr(3, 0), []float64{2}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatalf("a route through a failed unit aborted the run: %v", err)
	}
	if len(out[addr(2, 0)]) != 0 || len(out[addr(0, 0)]) != 0 {
		t.Errorf("the routed token crossed the failed unit or stayed at its source: %v", out)
	}
	if got := out[addr(4, 0)]; len(got) != 1 || got[0][0] != 2 {
		t.Errorf("unrelated stream's output = %v, want [[2]]", got)
	}

	nowhere := &packet.Packet{Dst: addr(0, 0), Type: packet.TypeData, Payload: []float64{1},
		Route: []packet.Address{addr(9, 9)}}
	if err := f.InjectPacket(nowhere); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil || !strings.Contains(err.Error(), "explicit route hop") {
		t.Errorf("route to an address with no unit: Run = %v, want an explicit route hop error", err)
	}
}

// TestFailedRunLeavesNothingBehind: a Run that fails drops the tokens it
// did not deliver and the outputs it gathered, so the next Run, with
// nothing injected, returns nothing; the ledger keeps the work that ran.
func TestFailedRunLeavesNothingBehind(t *testing.T) {
	f, led := newFabric(t)
	for _, a := range []packet.Address{addr(0, 0), addr(1, 0), addr(2, 0)} {
		if _, err := f.AddUnit(a, KindCompute); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Stream(addr(2, 0), []float64{5}); err != nil {
		t.Fatal(err)
	}
	nowhere := &packet.Packet{Dst: addr(0, 0), Type: packet.TypeData, Payload: []float64{1},
		Route: []packet.Address{addr(9, 9)}}
	if err := f.InjectPacket(nowhere); err != nil {
		t.Fatal(err)
	}
	if err := f.Stream(addr(1, 0), []float64{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("a route to an address with no unit did not fail the run")
	}
	ran := led.Category("compute")
	if ran == energy.Zero {
		t.Error("the ledger lost the work the failed run did")
	}
	if out := run(t, f); len(out) != 0 {
		t.Errorf("the run after a failed one returned %v, want nothing", out)
	}
	if got := led.Category("compute"); got != ran {
		t.Errorf("the run after a failed one charged %v, want nothing beyond %v", got, ran)
	}
}

func programPacket(t *testing.T, dst packet.Address, prog isa.Program) *packet.Packet {
	t.Helper()
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return &packet.Packet{Dst: dst, Type: packet.TypeProgram, Code: code}
}

func TestFabricSelfProgramming(t *testing.T) {
	// A program packet reconfigures a forward unit into relu and streams
	// data through it: self-programmable dataflow.
	f, led := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	p := programPacket(t, addr(0, 0), isa.Program{
		{Op: isa.OpConfigure, Unit: addr(0, 0), Fn: isa.FuncReLU},
		{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{-3, 4}},
		{Op: isa.OpHalt},
	})
	if err := f.InjectPacket(p); err != nil {
		t.Fatal(err)
	}
	res := run(t, f)[addr(0, 0)]
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	if res[0][0] != 0 || res[0][1] != 4 {
		t.Errorf("reprogrammed unit output = %v, want [0 4]", res[0])
	}
	if led.Category("reconfigure").EnergyPJ == 0 {
		t.Error("no reconfiguration cost charged")
	}
}

func TestFabricSelfProgrammingConnect(t *testing.T) {
	f, _ := newFabric(t)
	addUnits(t, f, []packet.Address{addr(0, 0), addr(1, 0)}, isa.FuncForward, isa.FuncForward)
	p := programPacket(t, addr(0, 0), isa.Program{
		{Op: isa.OpConnect, Unit: addr(0, 0), Unit2: addr(1, 0)},
		{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{1}},
		{Op: isa.OpHalt},
	})
	if err := f.InjectPacket(p); err != nil {
		t.Fatal(err)
	}
	if out := run(t, f); len(out[addr(1, 0)]) != 1 {
		t.Errorf("data did not flow over program-created edge: %v", out)
	}
}

// TestProgramPacketCountsStream: a program packet's stream is one of the
// fabric's streams, as a loaded program's is.
func TestProgramPacketCountsStream(t *testing.T) {
	prog := isa.Program{
		{Op: isa.OpConfigure, Unit: addr(0, 0), Fn: isa.FuncReLU},
		{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{-3, 4}},
		{Op: isa.OpHalt},
	}
	for _, path := range []string{"LoadProgram", "packet"} {
		reg := metrics.NewRegistry()
		f, err := NewFabric(DefaultConfig(), nil, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
			t.Fatal(err)
		}
		if path == "LoadProgram" {
			err = f.LoadProgram(prog)
		} else {
			err = f.InjectPacket(programPacket(t, addr(0, 0), prog))
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("fabric.streams").Value(); got != 1 {
			t.Errorf("%s: fabric.streams = %d, want 1", path, got)
		}
	}
}

func TestFabricProgramPacketErrors(t *testing.T) {
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	// Corrupt code fails the run.
	if err := f.InjectPacket(&packet.Packet{Dst: addr(0, 0), Type: packet.TypeProgram, Code: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Error("corrupt program accepted")
	}
	// A program referencing a missing unit fails the run.
	p := programPacket(t, addr(0, 0), isa.Program{
		{Op: isa.OpConfigure, Unit: addr(9, 9), Fn: isa.FuncReLU},
		{Op: isa.OpHalt},
	})
	if err := f.InjectPacket(p); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Error("program with missing unit accepted")
	}
}

func TestFabricCycleGuard(t *testing.T) {
	f, _ := newFabric(t)
	a, b := addr(0, 0), addr(1, 0)
	addUnits(t, f, []packet.Address{a, b}, isa.FuncForward, isa.FuncForward)
	connect(t, f, [2]packet.Address{a, b}, [2]packet.Address{b, a})
	f.maxSteps = 100
	if err := f.Stream(a, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Error("unbounded cycle should hit the step guard")
	}
}

func TestFabricDropsTokenOnDisabledUnit(t *testing.T) {
	f, _ := newFabric(t)
	src, relu, sink := pipeline(t, f)
	if err := f.Stream(src, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Stream(relu, []float64{2}); err != nil {
		t.Fatal(err)
	}
	// Disable the middle unit while a token waits on it: that token is
	// dropped at the containment boundary, not a run error. Disabling also
	// unlinks src->relu, so src's output lands at src itself (now a sink).
	if err := f.DisableUnit(relu); err != nil {
		t.Fatal(err)
	}
	out := run(t, f)
	if len(out[sink]) != 0 || len(out[relu]) != 0 {
		t.Errorf("a token traversed a disabled unit: %v", out)
	}
	if len(out[src]) != 1 {
		t.Errorf("src results = %d, want 1", len(out[src]))
	}
}

func TestFabricInjectErrors(t *testing.T) {
	f, _ := newFabric(t)
	if err := f.Stream(addr(0, 0), []float64{1}); err == nil {
		t.Error("stream into an empty fabric succeeded")
	}
	if err := f.InjectPacket(&packet.Packet{Dst: addr(7, 0)}); err == nil {
		t.Error("inject packet for unknown address succeeded")
	}
}

// Property: execution is deterministic — the same units and injection
// sequence produce identical outputs and identical ledger totals.
func TestFabricDeterminism(t *testing.T) {
	runOnce := func() ([][]float64, energy.Cost) {
		f, led := newFabric(t)
		src, h1, h2, sink := addr(0, 0), addr(1, 0), addr(2, 0), addr(3, 0)
		addUnits(t, f, []packet.Address{src, h1, h2, sink}, isa.FuncForward, isa.FuncReLU, isa.FuncSigmoid, isa.FuncAccumulate)
		connect(t, f, [2]packet.Address{src, h1}, [2]packet.Address{src, h2}, [2]packet.Address{h1, sink}, [2]packet.Address{h2, sink})
		for i := 0; i < 10; i++ {
			if err := f.Stream(src, []float64{float64(i) - 4.5, float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return run(t, f)[sink], led.Total()
	}
	out1, cost1 := runOnce()
	out2, cost2 := runOnce()
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

func TestFabricControlPacketIgnored(t *testing.T) {
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectPacket(&packet.Packet{Dst: addr(0, 0), Type: packet.TypeControl}); err != nil {
		t.Fatal(err)
	}
	if out := run(t, f); len(out[addr(0, 0)]) != 0 {
		t.Error("control packet produced dataflow output")
	}
}

// TestFabricAddAndLookup: Unit finds by address the unit AddUnit made, the
// fabric counts it, and until a configure reaches it the unit forwards its
// input.
func TestFabricAddAndLookup(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	f, err := NewFabric(cfg, energy.NewLedger(), reg)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(1, 0)
	u, err := f.AddUnit(a, KindCompute)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Unit(a); err != nil || got != u {
		t.Errorf("Unit(%v) = %p, %v; want %p", a, got, err, u)
	}
	if n := reg.Counter("fabric.units").Value(); n != 1 {
		t.Errorf("fabric.units = %d, want 1", n)
	}
	if err := f.Stream(a, []float64{1, -2}); err != nil {
		t.Fatal(err)
	}
	if out := run(t, f)[a]; len(out) != 1 || len(out[0]) != 2 || out[0][0] != 1 || out[0][1] != -2 {
		t.Errorf("unconfigured unit output = %v, want [[1 -2]]", out)
	}
}

// TestFabricAddUnitErrors: a second unit at a taken address, a function the
// fabric does not know and a lookup of an empty address are all refused.
func TestFabricAddUnitErrors(t *testing.T) {
	f, _ := newFabric(t)
	a := addr(1, 0)
	addUnits(t, f, []packet.Address{a}, isa.FuncForward)
	if _, err := f.AddUnit(a, KindCompute); err == nil {
		t.Error("duplicate address accepted")
	}
	if err := f.Configure(a, isa.Function(250), nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := f.Unit(addr(9, 9)); err == nil {
		t.Error("missing address lookup succeeded")
	}
	if err := f.Configure(addr(9, 9), isa.FuncForward, nil); err == nil {
		t.Error("configure of a missing unit succeeded")
	}
}

func TestFabricConnect(t *testing.T) {
	f, _ := newFabric(t)
	a, b := addr(0, 0), addr(1, 0)
	addUnits(t, f, []packet.Address{a, b}, isa.FuncForward, isa.FuncForward)
	if err := f.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(a, b); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := f.Connect(a, a); err == nil {
		t.Error("self-edge accepted")
	}
	if got, err := f.Successors(a); err != nil || len(got) != 1 || got[0] != b {
		t.Errorf("Successors = %v, %v; want [%v]", got, err, b)
	}
}

// TestFabricPredecessorOrder: predecessors come in the order their units
// were added, not in address or connection order.
func TestFabricPredecessorOrder(t *testing.T) {
	f, _ := newFabric(t)
	a, b, c := addr(3, 0), addr(1, 0), addr(2, 0)
	addUnits(t, f, []packet.Address{a, b, c}, isa.FuncForward, isa.FuncForward, isa.FuncForward)
	connect(t, f, [2]packet.Address{b, c}, [2]packet.Address{a, c})
	if preds, err := f.Predecessors(c); err != nil || len(preds) != 2 || preds[0] != a || preds[1] != b {
		t.Errorf("Predecessors(c) = %v, %v; want [%v %v]", preds, err, a, b)
	}
	if preds, err := f.Predecessors(a); err != nil || len(preds) != 0 {
		t.Errorf("Predecessors(a) = %v, %v; want none", preds, err)
	}
}

// TestDisableUnitUnlinks: a disabled unit leaves the graph with every edge
// touching it, and keeps its address.
func TestDisableUnitUnlinks(t *testing.T) {
	f, _ := newFabric(t)
	a, b, c := addr(0, 0), addr(1, 0), addr(2, 0)
	addUnits(t, f, []packet.Address{a, b, c}, isa.FuncForward, isa.FuncForward, isa.FuncForward)
	connect(t, f, [2]packet.Address{a, b}, [2]packet.Address{c, b}, [2]packet.Address{b, c})
	if err := f.DisableUnit(b); err != nil {
		t.Fatal(err)
	}
	for _, u := range []packet.Address{a, c} {
		if succs, err := f.Successors(u); err != nil || len(succs) != 0 {
			t.Errorf("Successors(%v) = %v, %v after disabling %v; want none", u, succs, err, b)
		}
		if preds, err := f.Predecessors(u); err != nil || len(preds) != 0 {
			t.Errorf("Predecessors(%v) = %v, %v after disabling %v; want none", u, preds, err, b)
		}
	}
	if _, err := f.Predecessors(b); err == nil {
		t.Error("predecessors of a disabled unit succeeded")
	}
	if err := f.Connect(a, b); err == nil {
		t.Error("connect to a disabled unit accepted")
	}
	if err := f.Configure(b, isa.FuncReLU, nil); err == nil {
		t.Error("configure of a disabled unit accepted")
	}
	if _, err := f.AddUnit(b, KindCompute); err == nil {
		t.Error("a disabled unit's address was reused")
	}
}

func TestConfigureCoversAllFunctions(t *testing.T) {
	for _, fn := range []isa.Function{
		isa.FuncForward, isa.FuncReLU, isa.FuncSigmoid,
		isa.FuncAccumulate, isa.FuncMaxPool, isa.FuncTanh, isa.FuncSoftmax,
	} {
		f, _ := newFabric(t)
		addUnits(t, f, []packet.Address{addr(0, 0)}, fn)
		if err := f.Stream(addr(0, 0), []float64{1, -1}); err != nil {
			t.Fatal(err)
		}
		if out := run(t, f); len(out[addr(0, 0)]) != 1 {
			t.Errorf("%v: %d results, want 1", fn, len(out[addr(0, 0)]))
		}
		if err := f.Configure(addr(0, 0), isa.FuncMVM, nil); err == nil {
			t.Errorf("MVM on a compute unit accepted")
		}
	}
}

func TestBuiltinFunctions(t *testing.T) {
	var s []float64
	tests := []struct {
		name string
		fn   unitFunc
		in   []float64
		want []float64
	}{
		{"forward", forward, []float64{1, -2, 3}, []float64{1, -2, 3}},
		{"relu", activation(Activations[isa.FuncReLU]), []float64{1, -2, 0}, []float64{1, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, cost, err := tt.fn(&s, 0, tt.in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Errorf("out[%d] = %g, want %g", i, got[i], tt.want[i])
				}
			}
			if cost.LatencyPS <= 0 {
				t.Error("zero-latency compute")
			}
		})
	}
}

func TestSigmoid(t *testing.T) {
	var s []float64
	got, _, err := activation(Activations[isa.FuncSigmoid])(&s, 0, []float64{0, 100, -100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %g, want 0.5", got[0])
	}
	if got[1] < 0.999 || got[2] > 0.001 {
		t.Errorf("sigmoid saturation wrong: %v", got)
	}
}

func TestAccumulateState(t *testing.T) {
	var s []float64
	if _, _, err := accumulate(&s, 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, _, err := accumulate(&s, 0, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 || got[1] != 22 {
		t.Errorf("accumulate = %v, want [11 22]", got)
	}
	// Growing input reuses existing prefix state.
	got, _, err = accumulate(&s, 0, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 12 || got[1] != 23 || got[2] != 1 {
		t.Errorf("grown accumulate = %v, want [12 23 1]", got)
	}
}

func TestMaxPoolState(t *testing.T) {
	var s []float64
	if _, _, err := maxPool(&s, 0, []float64{1, 5}); err != nil {
		t.Fatal(err)
	}
	got, _, err := maxPool(&s, 0, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 5 {
		t.Errorf("maxpool = %v, want [3 5]", got)
	}
	// Negative values on fresh elements still work (init is -inf).
	got, _, err = maxPool(&s, 0, []float64{-1, -1, -7})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != -7 {
		t.Errorf("maxpool fresh negative = %g, want -7", got[2])
	}
}

func TestTanhAndSoftmaxBuiltins(t *testing.T) {
	var s []float64
	out, _, err := activation(Activations[isa.FuncTanh])(&s, 0, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || math.Abs(out[1]-math.Tanh(2)) > 1e-12 {
		t.Errorf("tanh = %v", out)
	}
	out, cost, err := activation(Activations[isa.FuncSoftmax])(&s, 0, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("uniform softmax = %v", out)
			break
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %g", sum)
	}
	if cost.LatencyPS <= 0 {
		t.Error("zero softmax cost")
	}
}
