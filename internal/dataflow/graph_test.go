package dataflow

import (
	"math"
	"testing"

	"cimrev/internal/isa"
	"cimrev/internal/packet"
)

func addr(u uint16) packet.Address { return packet.Address{Unit: u} }

func mustNode(t *testing.T, g *Graph, name string, a packet.Address, fn NodeFunc) NodeID {
	t.Helper()
	id, err := g.AddNode(name, a, fn)
	if err != nil {
		t.Fatalf("AddNode(%s): %v", name, err)
	}
	return id
}

func TestGraphAddAndLookup(t *testing.T) {
	g := NewGraph()
	id := mustNode(t, g, "a", addr(1), Forward())
	n, err := g.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "a" {
		t.Errorf("name = %q, want a", n.Name)
	}
	byAddr, err := g.NodeByAddr(addr(1))
	if err != nil {
		t.Fatal(err)
	}
	if byAddr.ID != id {
		t.Errorf("NodeByAddr id = %d, want %d", byAddr.ID, id)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestGraphAddNodeErrors(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddNode("x", addr(1), nil); err == nil {
		t.Error("nil function accepted")
	}
	mustNode(t, g, "a", addr(1), Forward())
	if _, err := g.AddNode("b", addr(1), Forward()); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := g.Node(99); err == nil {
		t.Error("missing node lookup succeeded")
	}
	if _, err := g.NodeByAddr(addr(9)); err == nil {
		t.Error("missing address lookup succeeded")
	}
}

func TestGraphConnect(t *testing.T) {
	g := NewGraph()
	a := mustNode(t, g, "a", addr(1), Forward())
	b := mustNode(t, g, "b", addr(2), Forward())

	if err := g.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(a, b); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.Connect(a, a); err == nil {
		t.Error("self-edge accepted")
	}
	if err := g.Connect(a, 99); err == nil {
		t.Error("edge to missing node accepted")
	}
	if err := g.Connect(99, a); err == nil {
		t.Error("edge from missing node accepted")
	}

	n, _ := g.Node(a)
	if got := n.Successors(); len(got) != 1 || got[0] != b {
		t.Errorf("Successors = %v, want [%d]", got, b)
	}
}

func TestGraphRemoveNode(t *testing.T) {
	g := NewGraph()
	a := mustNode(t, g, "a", addr(1), Forward())
	b := mustNode(t, g, "b", addr(2), Forward())
	c := mustNode(t, g, "c", addr(3), Forward())
	if err := g.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(c, b); err != nil {
		t.Fatal(err)
	}

	if err := g.RemoveNode(b); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(b); err == nil {
		t.Error("double remove succeeded")
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
	na, _ := g.Node(a)
	if len(na.Successors()) != 0 {
		t.Error("dangling edge a->b survived RemoveNode")
	}
	// Address is free for reuse.
	if _, err := g.AddNode("b2", addr(2), Forward()); err != nil {
		t.Errorf("address reuse after removal failed: %v", err)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	var s State
	tests := []struct {
		name string
		fn   NodeFunc
		in   []float64
		want []float64
	}{
		{"forward", Forward(), []float64{1, -2, 3}, []float64{1, -2, 3}},
		{"relu", ReLU(), []float64{1, -2, 0}, []float64{1, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, cost, err := tt.fn(&s, tt.in)
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
	var s State
	got, _, err := Sigmoid()(&s, []float64{0, 100, -100})
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
	fn := Accumulate()
	var s State
	if _, _, err := fn(&s, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, _, err := fn(&s, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 || got[1] != 22 {
		t.Errorf("accumulate = %v, want [11 22]", got)
	}
	// Growing input reuses existing prefix state.
	got, _, err = fn(&s, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 12 || got[1] != 23 || got[2] != 1 {
		t.Errorf("grown accumulate = %v, want [12 23 1]", got)
	}
}

func TestMaxPoolState(t *testing.T) {
	fn := MaxPool()
	var s State
	if _, _, err := fn(&s, []float64{1, 5}); err != nil {
		t.Fatal(err)
	}
	got, _, err := fn(&s, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 5 {
		t.Errorf("maxpool = %v, want [3 5]", got)
	}
	// Negative values on fresh elements still work (init is -inf).
	got, _, err = fn(&s, []float64{-1, -1, -7})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != -7 {
		t.Errorf("maxpool fresh negative = %g, want -7", got[2])
	}
}

func TestGraphPredecessors(t *testing.T) {
	g := NewGraph()
	a := mustNode(t, g, "a", addr(1), Forward())
	b := mustNode(t, g, "b", addr(2), Forward())
	c := mustNode(t, g, "c", addr(3), Forward())
	if err := g.Connect(a, c); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(b, c); err != nil {
		t.Fatal(err)
	}
	preds := g.Predecessors(c)
	if len(preds) != 2 || preds[0] != a || preds[1] != b {
		t.Errorf("Predecessors(c) = %v", preds)
	}
	if got := g.Predecessors(a); len(got) != 0 {
		t.Errorf("Predecessors(a) = %v", got)
	}
}

func TestTanhAndSoftmaxBuiltins(t *testing.T) {
	var s State
	out, _, err := Tanh()(&s, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || math.Abs(out[1]-math.Tanh(2)) > 1e-12 {
		t.Errorf("tanh = %v", out)
	}
	out, cost, err := Softmax()(&s, []float64{1, 1, 1, 1})
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

func TestDefaultFuncFactoryCoversAll(t *testing.T) {
	for _, fn := range []isa.Function{
		isa.FuncForward, isa.FuncReLU, isa.FuncSigmoid,
		isa.FuncAccumulate, isa.FuncMaxPool, isa.FuncTanh, isa.FuncSoftmax,
	} {
		nf, err := DefaultFuncFactory(fn, nil)
		if err != nil {
			t.Errorf("factory(%v): %v", fn, err)
			continue
		}
		var s State
		if _, _, err := nf(&s, []float64{1, -1}); err != nil {
			t.Errorf("factory(%v) func failed: %v", fn, err)
		}
	}
	if _, err := DefaultFuncFactory(isa.FuncMVM, nil); err == nil {
		t.Error("MVM from default factory accepted")
	}
}

func TestEngineAccessors(t *testing.T) {
	g := NewGraph()
	id := mustNode(t, g, "a", addr(1), Forward())
	e, err := NewEngine(g, nil, WithFuncFactory(DefaultFuncFactory))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(id, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if out, err := e.Run(); err != nil || len(out[id]) != 1 {
		t.Errorf("Run = %v, %v; want one output", out, err)
	}
}

func TestEngineControlPacketIgnored(t *testing.T) {
	g := NewGraph()
	id := mustNode(t, g, "a", addr(1), Forward())
	e, err := NewEngine(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPacket(&packet.Packet{Dst: addr(1), Type: packet.TypeControl}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[id]) != 0 {
		t.Error("control packet produced dataflow output")
	}
}
