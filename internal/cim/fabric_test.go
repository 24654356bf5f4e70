package cim

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
)

func addr(tile, unit uint16) packet.Address { return packet.Address{Tile: tile, Unit: unit} }

// dense is the bias-free layer whose output o reads cols[o].
func dense(t *testing.T, cols ...[]float64) *nn.Dense {
	t.Helper()
	d, err := nn.NewDenseCols(cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newFabric(t *testing.T) (*Fabric, *energy.Ledger) {
	t.Helper()
	led := energy.NewLedger()
	cfg := DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 16, 16
	f, err := NewFabric(cfg, led, metrics.NewRegistry())
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return f, led
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cfg.MeshW = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero mesh width accepted")
	}
	cfg = DefaultConfig()
	cfg.LinkBandwidth = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	cfg = DefaultConfig()
	cfg.Crossbar.Rows = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad crossbar config accepted")
	}
}

func TestAddUnitValidation(t *testing.T) {
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err == nil {
		t.Error("duplicate unit accepted")
	}
	if _, err := f.AddUnit(addr(99, 0), KindCompute); err == nil {
		t.Error("tile outside mesh accepted")
	}
	if _, err := f.AddUnit(addr(0, 2), UnitKind(9)); err == nil {
		t.Error("unknown kind accepted")
	}
	other := packet.Address{Board: 3, Tile: 0, Unit: 5}
	if _, err := f.AddUnit(other, KindCompute); err == nil {
		t.Error("wrong board accepted")
	}
	if _, err := f.Unit(addr(9, 9)); err == nil {
		t.Error("missing unit lookup succeeded")
	}
}

func TestFabricMVMPipeline(t *testing.T) {
	f, led := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCrossbar); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddUnit(addr(1, 0), KindCompute); err != nil {
		t.Fatal(err)
	}

	w := dense(t, []float64{1, 0, 0.5}, []float64{0, 1, -0.5}) // 3 inputs -> 2 outputs
	if err := f.Configure(addr(0, 0), isa.FuncMVM, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Configure(addr(1, 0), isa.FuncReLU, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(addr(0, 0), addr(1, 0)); err != nil {
		t.Fatal(err)
	}

	if err := f.Stream(addr(0, 0), []float64{1, -1, 0.5}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out[addr(1, 0)]
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	// Ideal: [1*1 + 0*-1 + 0.5*0.5, 0 - 1 - 0.25] = [1.25, -1.25];
	// ReLU -> [1.25, 0]. Allow crossbar quantization slack.
	if math.Abs(res[0][0]-1.25) > 0.15 {
		t.Errorf("out[0] = %g, want ~1.25", res[0][0])
	}
	if res[0][1] != 0 {
		t.Errorf("out[1] = %g, want 0 (ReLU clamp)", res[0][1])
	}

	if led.Category("program").LatencyPS == 0 {
		t.Error("no programming cost charged")
	}
	if led.Category("compute").EnergyPJ == 0 {
		t.Error("no compute cost charged")
	}
	if led.Category("network").EnergyPJ == 0 {
		t.Error("no network cost charged")
	}
}

func TestConfigureErrors(t *testing.T) {
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	if err := f.Configure(addr(9, 9), isa.FuncReLU, nil); err == nil {
		t.Error("configure of missing unit accepted")
	}
	if err := f.Configure(addr(0, 0), isa.FuncMVM, dense(t, []float64{1})); err == nil {
		t.Error("MVM on compute unit accepted")
	}
	if _, err := f.AddUnit(addr(0, 1), KindCrossbar); err != nil {
		t.Fatal(err)
	}
	if err := f.Configure(addr(0, 1), isa.FuncMVM, nil); err == nil {
		t.Error("MVM without weights accepted")
	}
}

func TestCheckUnitChangesNothing(t *testing.T) {
	f, _ := newFabric(t)
	w := dense(t, []float64{1, 0}, []float64{0, 1})
	if err := f.CheckUnit(addr(0, 0), KindCrossbar, w); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckUnit(addr(0, 0), KindCompute, w); err == nil {
		t.Error("an MVM layer checked on a compute unit")
	}
	if err := f.CheckUnit(addr(0, 0), KindCrossbar, dense(t, []float64{1, math.NaN()})); err == nil {
		t.Error("a NaN weight checked")
	}
	if err := f.CheckUnit(addr(99, 0), KindCompute, nil); err == nil {
		t.Error("a tile outside the mesh checked")
	}
	if _, err := f.Unit(addr(0, 0)); err == nil {
		t.Error("CheckUnit added a unit")
	}
}

func TestReprogramWriteAsymmetry(t *testing.T) {
	f, led := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCrossbar); err != nil {
		t.Fatal(err)
	}
	w := dense(t, []float64{1, 0}, []float64{0, 1})
	for pass := 1; pass <= 2; pass++ {
		if err := f.Configure(addr(0, 0), isa.FuncMVM, w); err != nil {
			t.Fatal(err)
		}
		if got := led.Category("program").LatencyPS; got < int64(pass)*energy.CrossbarWriteLatencyPS {
			t.Errorf("after %d programming passes the ledger holds %d ps, below one write each", pass, got)
		}
	}
}

func TestLoadProgramStaticDataflow(t *testing.T) {
	f, _ := newFabric(t)
	for _, a := range []packet.Address{addr(0, 0), addr(1, 0)} {
		kind := KindCrossbar
		if a.Tile == 1 {
			kind = KindCompute
		}
		if _, err := f.AddUnit(a, kind); err != nil {
			t.Fatal(err)
		}
	}
	prog := isa.Program{
		{Op: isa.OpLoadWeights, Unit: addr(0, 0), Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}},
		{Op: isa.OpConfigure, Unit: addr(0, 0), Fn: isa.FuncMVM},
		{Op: isa.OpConfigure, Unit: addr(1, 0), Fn: isa.FuncSigmoid},
		{Op: isa.OpConnect, Unit: addr(0, 0), Unit2: addr(1, 0)},
		{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{1, -1}},
		{Op: isa.OpHalt},
	}
	if err := f.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out[addr(1, 0)]
	if len(res) != 1 || len(res[0]) != 2 {
		t.Fatalf("unexpected results %v", res)
	}
	// sigmoid(~1) ~ 0.73, sigmoid(~-1) ~ 0.27
	if math.Abs(res[0][0]-0.73) > 0.05 || math.Abs(res[0][1]-0.27) > 0.05 {
		t.Errorf("sigmoid outputs = %v, want ~[0.73 0.27]", res[0])
	}
}

func TestLoadProgramErrors(t *testing.T) {
	f, _ := newFabric(t)
	if err := f.LoadProgram(isa.Program{}); err == nil {
		t.Error("empty program accepted")
	}
	prog := isa.Program{
		{Op: isa.OpConfigure, Unit: addr(5, 5), Fn: isa.FuncReLU},
		{Op: isa.OpHalt},
	}
	if err := f.LoadProgram(prog); err == nil {
		t.Error("program for missing unit accepted")
	}
}

func TestLoadProgramAllOrNothing(t *testing.T) {
	// Each program wires 0/0/0 -> 0/1/0 and streams into 0/0/0 before an
	// instruction the fabric must refuse: neither path may leave the edge,
	// the stream or a charge behind.
	for _, bad := range []struct {
		name string
		in   isa.Instruction
	}{
		{"missing unit", isa.Instruction{Op: isa.OpConfigure, Unit: addr(9, 9), Fn: isa.FuncReLU}},
		{"failed unit", isa.Instruction{Op: isa.OpConfigure, Unit: addr(3, 0), Fn: isa.FuncReLU}},
		{"mvm on compute", isa.Instruction{Op: isa.OpConfigure, Unit: addr(1, 0), Fn: isa.FuncMVM}},
		{"mvm without weights", isa.Instruction{Op: isa.OpConfigure, Unit: addr(2, 0), Fn: isa.FuncMVM}},
		{"edge twice", isa.Instruction{Op: isa.OpConnect, Unit: addr(0, 0), Unit2: addr(1, 0)}},
		{"edge from missing", isa.Instruction{Op: isa.OpConnect, Unit: addr(9, 9), Unit2: addr(1, 0)}},
		{"edge to failed", isa.Instruction{Op: isa.OpConnect, Unit: addr(1, 0), Unit2: addr(3, 0)}},
		{"stream to missing", isa.Instruction{Op: isa.OpStream, Unit: addr(9, 9), Data: []float64{1}}},
		{"stream to failed", isa.Instruction{Op: isa.OpStream, Unit: addr(3, 0), Data: []float64{1}}},
	} {
		for _, path := range []string{"LoadProgram", "packet"} {
			f, led := newFabric(t)
			addUnits(t, f, []packet.Address{addr(0, 0), addr(1, 0), addr(3, 0)}, isa.FuncForward, isa.FuncForward, isa.FuncForward)
			if _, err := f.AddUnit(addr(2, 0), KindCrossbar); err != nil {
				t.Fatal(err)
			}
			if err := f.DisableUnit(addr(3, 0)); err != nil {
				t.Fatal(err)
			}
			before := led.Report()
			prog := isa.Program{
				{Op: isa.OpConnect, Unit: addr(0, 0), Unit2: addr(1, 0)},
				{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{3}},
				bad.in,
				{Op: isa.OpHalt},
			}
			var err error
			if path == "LoadProgram" {
				err = f.LoadProgram(prog)
			} else if err = f.InjectPacket(programPacket(t, addr(0, 0), prog)); err == nil {
				_, err = f.Run()
			}
			if err == nil {
				t.Errorf("%s via %s: program accepted", bad.name, path)
				continue
			}
			if succ, _ := f.Successors(addr(0, 0)); len(succ) != 0 {
				t.Errorf("%s via %s: edge left behind: %v", bad.name, path, succ)
			}
			if f.streams != 0 || f.reg.Counter("fabric.streams").Value() != 0 {
				t.Errorf("%s via %s: stream counted", bad.name, path)
			}
			if out := run(t, f); len(out) != 0 {
				t.Errorf("%s via %s: next Run returned %v", bad.name, path, out)
			}
			if after := led.Report(); after != before {
				t.Errorf("%s via %s: ledger moved:\n%s\nwant:\n%s", bad.name, path, after, before)
			}
		}
	}
}

func TestSelfProgrammingWithCrossbarHardware(t *testing.T) {
	// A program packet configures an MVM unit: its configure must
	// provision real crossbar hardware.
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCrossbar); err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{
		{Op: isa.OpLoadWeights, Unit: addr(0, 0), Rows: 2, Cols: 1, Data: []float64{1, 1}},
		{Op: isa.OpConfigure, Unit: addr(0, 0), Fn: isa.FuncMVM},
		{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{0.5, 0.25}},
		{Op: isa.OpHalt},
	}
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectPacket(&packet.Packet{Dst: addr(0, 0), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out[addr(0, 0)]
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	if math.Abs(res[0][0]-0.75) > 0.1 {
		t.Errorf("self-programmed MVM = %g, want ~0.75", res[0][0])
	}
}

func TestDisableUnitContainment(t *testing.T) {
	f, _ := newFabric(t)
	for i := uint16(0); i < 3; i++ {
		if _, err := f.AddUnit(addr(i, 0), KindCompute); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Connect(addr(0, 0), addr(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(addr(1, 0), addr(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.DisableUnit(addr(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.DisableUnit(addr(1, 0)); err == nil {
		t.Error("double disable accepted")
	}
	u, err := f.Unit(addr(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !u.Failed() {
		t.Error("unit not marked failed")
	}
	// Stream into the failed unit is rejected; stream through it is
	// contained (no output at the far side).
	if err := f.Stream(addr(1, 0), []float64{1}); err == nil {
		t.Error("stream into failed unit accepted")
	}
	if err := f.Stream(addr(0, 0), []float64{1}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out[addr(2, 0)]) != 0 {
		t.Error("data crossed a failed unit")
	}
}

func TestEdgeCostDistanceSensitivity(t *testing.T) {
	// Transfers between distant tiles must cost more latency than
	// same-tile transfers.
	f, led := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddUnit(addr(15, 0), KindCompute); err != nil { // far corner of 4x4
		t.Fatal(err)
	}
	if err := f.Connect(addr(0, 0), addr(15, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Stream(addr(0, 0), []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	farNet := led.Category("network").LatencyPS

	f2, led2 := newFabric(t)
	if _, err := f2.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.AddUnit(addr(0, 1), KindCompute); err != nil {
		t.Fatal(err)
	}
	if err := f2.Connect(addr(0, 0), addr(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f2.Stream(addr(0, 0), []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Run(); err != nil {
		t.Fatal(err)
	}
	nearNet := led2.Category("network").LatencyPS
	if farNet <= nearNet {
		t.Errorf("far transfer %d ps should exceed same-tile %d ps", farNet, nearNet)
	}
}

func TestFabricTopologyIntrospection(t *testing.T) {
	f, _ := newFabric(t)
	a, b, c := addr(0, 0), addr(1, 0), addr(2, 0)
	for _, u := range []packet.Address{a, b, c} {
		if _, err := f.AddUnit(u, KindCompute); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(b, c); err != nil {
		t.Fatal(err)
	}

	preds, err := f.Predecessors(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != a {
		t.Errorf("Predecessors(b) = %v", preds)
	}
	succs, err := f.Successors(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(succs) != 1 || succs[0] != c {
		t.Errorf("Successors(b) = %v", succs)
	}
	if _, err := f.Predecessors(addr(9, 9)); err == nil {
		t.Error("predecessors of missing unit succeeded")
	}
	if _, err := f.Successors(addr(9, 9)); err == nil {
		t.Error("successors of missing unit succeeded")
	}

	if err := f.Connect(addr(9, 9), b); err == nil {
		t.Error("connect from missing unit accepted")
	}
	if err := f.Connect(a, addr(9, 9)); err == nil {
		t.Error("connect to missing unit accepted")
	}

}

func TestUnitKindStringsAndAccessors(t *testing.T) {
	for k, want := range map[UnitKind]string{
		KindCompute: "compute", KindCrossbar: "crossbar", KindControl: "control",
	} {
		if got := k.String(); got != want {
			t.Errorf("UnitKind(%d) = %q, want %q", k, got, want)
		}
	}
	if got := UnitKind(42).String(); got != "kind(42)" {
		t.Errorf("unknown kind = %q", got)
	}

	f, _ := newFabric(t)
	u, err := f.AddUnit(addr(0, 0), KindCompute)
	if err != nil {
		t.Fatal(err)
	}
	if u.Kind != KindCompute || u.Failed() {
		t.Errorf("fresh unit: kind %v failed %v, want a healthy compute unit", u.Kind, u.Failed())
	}
	if got, err := f.Unit(addr(0, 0)); err != nil || got != u {
		t.Errorf("Unit(0/0/0) = %p, %v; want the unit AddUnit returned, %p", got, err, u)
	}
	if err := f.Configure(addr(0, 0), isa.FuncSigmoid, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfProgrammingMVMWithoutWeights(t *testing.T) {
	// Configure rejects an MVM that never received loadweights.
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCrossbar); err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{
		{Op: isa.OpConfigure, Unit: addr(0, 0), Fn: isa.FuncMVM},
		{Op: isa.OpHalt},
	}
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectPacket(&packet.Packet{Dst: addr(0, 0), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Error("MVM without weights accepted via program packet")
	}
}

func TestProgramPacketChecksUnitKind(t *testing.T) {
	// A program packet configures through Configure itself, so it cannot
	// put an MVM on a digital unit either.
	f, _ := newFabric(t)
	if _, err := f.AddUnit(addr(0, 0), KindCompute); err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{
		{Op: isa.OpLoadWeights, Unit: addr(0, 0), Rows: 2, Cols: 1, Data: []float64{1, 1}},
		{Op: isa.OpConfigure, Unit: addr(0, 0), Fn: isa.FuncMVM},
		{Op: isa.OpStream, Unit: addr(0, 0), Data: []float64{0.5, 0.25}},
		{Op: isa.OpHalt},
	}
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InjectPacket(&packet.Packet{Dst: addr(0, 0), Type: packet.TypeProgram, Code: code}); err != nil {
		t.Fatal(err)
	}
	if out, err := f.Run(); err == nil {
		t.Errorf("program packet put an MVM on a compute unit; it returned %v", out[addr(0, 0)])
	}
}

func TestStreamNoiseIndependence(t *testing.T) {
	// A noisy stream's output is a function of (seed, stream, unit): stream
	// B reads the same whether or not stream A ran through the fabric first.
	runB := func(withA bool) []float64 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Crossbar.Rows, cfg.Crossbar.Cols = 4, 4
		cfg.Crossbar.ReadNoise = 0.05
		f, err := NewFabric(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddUnit(addr(0, 0), KindCrossbar); err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddUnit(addr(1, 0), KindCrossbar); err != nil {
			t.Fatal(err)
		}
		w := dense(t, []float64{1, 0.5, -0.75, 0.1, 1, 0}, []float64{-0.5, 1, 0.25, 0.2, 1, 0.5}, []float64{0.25, -1, 0.5, 0.3, -1, 0.5})
		if err := f.Configure(addr(0, 0), isa.FuncMVM, w); err != nil {
			t.Fatal(err)
		}
		if err := f.Configure(addr(1, 0), isa.FuncMVM, dense(t, []float64{1, 0.5, 0.25}, []float64{0, -1, 0.75})); err != nil {
			t.Fatal(err)
		}
		if err := f.Connect(addr(0, 0), addr(1, 0)); err != nil {
			t.Fatal(err)
		}
		streams := []packet.Packet{{Stream: 1, Payload: []float64{0.5, -0.25, 1, 0.75, -1, 0.1}}}
		if withA {
			streams = append([]packet.Packet{{Stream: 0, Payload: []float64{-1, 0.5, 0.25, 0, 1, -0.5}}}, streams...)
		}
		for _, p := range streams {
			p.Dst, p.Type = addr(0, 0), packet.TypeData
			if err := f.InjectPacket(&p); err != nil {
				t.Fatal(err)
			}
		}
		out, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		res := out[addr(1, 0)]
		if len(res) != len(streams) {
			t.Fatalf("%d results for %d streams", len(res), len(streams))
		}
		return res[len(res)-1]
	}
	alone, after := runB(false), runB(true)
	for i := range alone {
		if alone[i] != after[i] {
			t.Errorf("stream B out[%d] = %v alone, %v after stream A", i, alone[i], after[i])
		}
	}
}

// TestISAMatchesEngine: a loadweights operand, in x out, configures an MVM
// unit that reads == to a dpe.Engine loaded with the bias-free Dense whose
// W is the operand's transpose — stream k against noise key k — and whose
// compute ledger is the engine's PredictBatchCost(1) a stream, through
// LoadProgram and through a program packet alike, in functional and in
// noisy bit-serial mode. The 5 x 3 operand spans two 4 x 4 block rows.
func TestISAMatchesEngine(t *testing.T) {
	const in, out = 5, 3
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, in*out)
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
	cols := make([][]float64, out)
	for o := range cols {
		cols[o] = make([]float64, in)
		for r := range cols[o] {
			cols[o][r] = data[r*out+o]
		}
	}
	streams := [][]float64{{1, -0.5, 0.25, 0.75, -1}, {-0.25, 0.5, 1, 0, 0.5}, {0.1, 0.2, -0.3, 0.4, -0.5}}
	unit := addr(0, 0)
	prog := isa.Program{
		{Op: isa.OpLoadWeights, Unit: unit, Rows: in, Cols: out, Data: data},
		{Op: isa.OpConfigure, Unit: unit, Fn: isa.FuncMVM},
	}
	for _, s := range streams {
		prog = append(prog, isa.Instruction{Op: isa.OpStream, Unit: unit, Data: s})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	code, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"functional", "noisy_bitserial"} {
		for _, path := range []string{"LoadProgram", "packet"} {
			t.Run(mode+"/"+path, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Crossbar.Rows, cfg.Crossbar.Cols = 4, 4
				cfg.Crossbar.Functional = mode == "functional"
				if !cfg.Crossbar.Functional {
					cfg.Crossbar.ReadNoise = 0.05
				}
				led := energy.NewLedger()
				f, err := NewFabric(cfg, led, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.AddUnit(unit, KindCrossbar); err != nil {
					t.Fatal(err)
				}
				if path == "LoadProgram" {
					err = f.LoadProgram(prog)
				} else {
					err = f.InjectPacket(&packet.Packet{Dst: unit, Type: packet.TypeProgram, Code: code})
				}
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := res[unit]
				if len(got) != len(streams) {
					t.Fatalf("%d results for %d streams", len(got), len(streams))
				}

				ecfg := dpe.DefaultConfig()
				ecfg.Crossbar, ecfg.Seed = cfg.Crossbar, cfg.Seed
				eng, err := dpe.New(ecfg)
				if err != nil {
					t.Fatal(err)
				}
				net, err := nn.NewNetwork("operand", dense(t, cols...))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Load(net); err != nil {
					t.Fatal(err)
				}
				for k, s := range streams {
					want, _, err := eng.InferBatchKeyed([]uint64{uint64(k)}, [][]float64{s})
					if err != nil {
						t.Fatal(err)
					}
					for j := range want[0] {
						if got[k][j] != want[0][j] {
							t.Errorf("stream %d out[%d] = %v on the fabric, %v on the engine", k, j, got[k][j], want[0][j])
						}
					}
				}
				compute, want := led.Category("compute"), eng.PredictBatchCost(1).Scale(int64(len(streams)))
				if compute.LatencyPS != want.LatencyPS {
					t.Errorf("compute latency %d ps on the fabric, engine %d ps", compute.LatencyPS, want.LatencyPS)
				}
				if rel := math.Abs(compute.EnergyPJ-want.EnergyPJ) / want.EnergyPJ; rel > 1e-12 {
					t.Errorf("compute energy %.10g pJ on the fabric, engine %.10g pJ (rel %g)", compute.EnergyPJ, want.EnergyPJ, rel)
				}
			})
		}
	}
}
