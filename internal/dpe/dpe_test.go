package dpe

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/nn"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	return cfg
}

func mlp(t *testing.T, sizes ...int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("mlp", sizes, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cfg := DefaultConfig()
	cfg.ConvReplicas = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero replicas accepted")
	}
	cfg = DefaultConfig()
	cfg.Crossbar.Rows = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad crossbar accepted")
	}
}

func TestEngineLifecycle(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Infer([]float64{1}); err == nil {
		t.Error("Infer before Load accepted")
	}
	if _, err := e.Reprogram(nil, false); err == nil {
		t.Error("Reprogram before Load accepted")
	}
	if _, err := e.Load(nil); err == nil {
		t.Error("nil network accepted")
	}
}

func TestEngineInferMatchesSoftware(t *testing.T) {
	net := mlp(t, 16, 32, 4)
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcost, err := e.Load(net)
	if err != nil {
		t.Fatal(err)
	}
	if pcost.LatencyPS == 0 {
		t.Error("zero programming cost")
	}
	if e.ProgramCost() != pcost {
		t.Error("ProgramCost mismatch")
	}

	in := make([]float64, 16)
	for i := range in {
		in[i] = math.Cos(float64(i))
	}
	got, cost, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	argmax := func(v []float64) int {
		b := 0
		for i := range v {
			if v[i] > v[b] {
				b = i
			}
		}
		return b
	}
	if argmax(got) != argmax(want) {
		t.Errorf("DPE class %d != software class %d", argmax(got), argmax(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.1 {
			t.Errorf("out[%d] = %g, want ~%g", i, got[i], want[i])
		}
	}
	if cost.LatencyPS <= 0 || cost.EnergyPJ <= 0 {
		t.Errorf("degenerate inference cost %v", cost)
	}
	if e.Inferences() != 1 {
		t.Errorf("Inferences = %d, want 1", e.Inferences())
	}
	if _, _, err := e.Infer([]float64{1}); err == nil {
		t.Error("wrong input length accepted")
	}
}

func TestEngineCNN(t *testing.T) {
	net, err := nn.NewLeNetStyle("cnn", 8, 32, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 64)
	for i := range in {
		in[i] = math.Sin(float64(i) / 3)
	}
	got, cost, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("out size = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.15 {
			t.Errorf("out[%d] = %g, want ~%g", i, got[i], want[i])
		}
	}
	if cost.LatencyPS <= 0 {
		t.Error("no latency charged for CNN")
	}
	if e.CrossbarCount() == 0 {
		t.Error("no crossbars counted")
	}
}

func TestConvReplicasSpeedup(t *testing.T) {
	// More conv replicas must cut conv latency but not energy.
	net, err := nn.NewLeNetStyle("cnn", 8, 16, 4, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(replicas int) energy.Cost {
		cfg := testConfig()
		cfg.ConvReplicas = replicas
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Load(net); err != nil {
			t.Fatal(err)
		}
		in := make([]float64, 64)
		_, cost, err := e.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	c1, c8 := run(1), run(8)
	if c8.LatencyPS >= c1.LatencyPS {
		t.Errorf("8 replicas latency %d not below 1 replica %d", c8.LatencyPS, c1.LatencyPS)
	}
	if math.Abs(c8.EnergyPJ-c1.EnergyPJ)/c1.EnergyPJ > 0.01 {
		t.Errorf("replica count changed energy: %g vs %g", c8.EnergyPJ, c1.EnergyPJ)
	}
}

func TestReprogramHiding(t *testing.T) {
	net := mlp(t, 32, 64, 8)
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	stall, err := e.Reprogram(net, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	hidden, err := e.Reprogram(net, true)
	if err != nil {
		t.Fatal(err)
	}
	if hidden.LatencyPS >= stall.LatencyPS/100 {
		t.Errorf("hidden reprogram latency %d not << stall %d", hidden.LatencyPS, stall.LatencyPS)
	}
	if hidden.EnergyPJ != stall.EnergyPJ {
		t.Errorf("hiding changed energy: %g vs %g", hidden.EnergyPJ, stall.EnergyPJ)
	}
}

func TestWriteAsymmetryDominatesProgramming(t *testing.T) {
	net := mlp(t, 64, 64, 8)
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcost, err := e.Load(net)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 64)
	_, icost, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if pcost.LatencyPS < 100*icost.LatencyPS {
		t.Errorf("program %d ps not >> infer %d ps", pcost.LatencyPS, icost.LatencyPS)
	}
}

func TestEffectiveWeightBandwidth(t *testing.T) {
	// The bandwidth advantage grows with stationary weight volume; a
	// 1024x1024 layer holds ~1 MB in-array and reads it every ~1.6 us.
	net := mlp(t, 1024, 1024, 10)
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	if e.WeightBytes() != float64(net.Params()) {
		// 8-bit weights: one byte per parameter.
		t.Errorf("WeightBytes = %g, want %d", e.WeightBytes(), net.Params())
	}
	in := make([]float64, 1024)
	_, cost, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	bw := e.EffectiveWeightBandwidth(cost)
	// The Section VI claim: effective bandwidth far beyond the CPU's
	// physical memory interface.
	if bw < 10*energy.CPUMemBandwidth {
		t.Errorf("effective weight bandwidth %g not >> CPU %g", bw, float64(energy.CPUMemBandwidth))
	}
	if e.EffectiveWeightBandwidth(energy.Zero) != 0 {
		t.Error("zero-latency bandwidth should be 0")
	}
}

func TestClusterScaling(t *testing.T) {
	net := mlp(t, 128, 128, 10)
	mkBatch := func(n int) [][]float64 {
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, 128)
			for j := range b[i] {
				b[i][j] = math.Sin(float64(i + j))
			}
		}
		return b
	}
	run := func(boards int) energy.Cost {
		c, err := NewCluster(testConfig(), boards, 1.0, 100e9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Load(net); err != nil {
			t.Fatal(err)
		}
		outs, cost, err := c.InferBatch(mkBatch(16))
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 16 {
			t.Fatalf("outputs = %d, want 16", len(outs))
		}
		return cost
	}
	c1, c4 := run(1), run(4)
	eff := ScalingEfficiency(c1, c4, 4)
	if eff < 0.5 || eff > 1.1 {
		t.Errorf("4-board scaling efficiency = %g, want near-linear [0.5, 1.1]", eff)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(testConfig(), 0, 1, 1e9); err == nil {
		t.Error("zero boards accepted")
	}
	c, err := NewCluster(testConfig(), 2, 1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Boards() != 2 {
		t.Errorf("Boards = %d", c.Boards())
	}
	if _, err := c.Engine(5); err == nil {
		t.Error("bad board index accepted")
	}
	if _, _, err := c.InferBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestClusterReprogramHiding(t *testing.T) {
	net := mlp(t, 64, 64, 8)
	c, err := NewCluster(testConfig(), 2, 1, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(net); err != nil {
		t.Fatal(err)
	}
	stall, err := c.ReprogramAll(net, false)
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := c.ReprogramAll(net, true)
	if err != nil {
		t.Fatal(err)
	}
	if hidden.LatencyPS >= stall.LatencyPS {
		t.Errorf("hidden %d not below stall %d", hidden.LatencyPS, stall.LatencyPS)
	}
}

func TestScalingEfficiencyEdgeCases(t *testing.T) {
	if ScalingEfficiency(energy.Zero, energy.Zero, 4) != 0 {
		t.Error("zero costs should yield 0")
	}
	one := energy.Cost{LatencyPS: 100}
	four := energy.Cost{LatencyPS: 25}
	if got := ScalingEfficiency(one, four, 4); got != 1 {
		t.Errorf("perfect scaling = %g, want 1", got)
	}
}

func TestTrainedNetworkSurvivesAnalogDeployment(t *testing.T) {
	// The full deployment story: train in software, program the result
	// into crossbars, and verify classification accuracy survives the
	// 8-bit weight quantization and ADC pipeline.
	rng := rand.New(rand.NewSource(77))
	const dim, classes = 8, 3
	allIn, allLab, err := nn.MakeBlobs(360, classes, dim, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainIn, trainLab := allIn[:240], allLab[:240]
	testIn, testLab := allIn[240:], allLab[240:]

	net, err := nn.NewMLP("deploy", []int{dim, 16, classes}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Train(net, trainIn, trainLab, 20, 0.05, rng); err != nil {
		t.Fatal(err)
	}
	swAcc, err := nn.Accuracy(net, testIn, testLab)
	if err != nil {
		t.Fatal(err)
	}
	if swAcc < 0.9 {
		t.Fatalf("software accuracy only %.2f; training failed", swAcc)
	}

	// Deploy to analog hardware — use the honest bit-serial mode.
	cfg := DefaultConfig()
	cfg.Crossbar.Functional = false
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, in := range testIn {
		out, _, err := eng.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for j := range out {
			if out[j] > out[best] {
				best = j
			}
		}
		if best == testLab[i] {
			correct++
		}
	}
	hwAcc := float64(correct) / float64(len(testIn))
	if hwAcc < swAcc-0.05 {
		t.Errorf("analog accuracy %.2f dropped more than 5pp below software %.2f", hwAcc, swAcc)
	}
}

func TestInferBatchPipelining(t *testing.T) {
	net := mlp(t, 128, 128, 10)
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 128)
	for i := range in {
		in[i] = math.Sin(float64(i))
	}
	_, single, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}

	const batch = 16
	inputs := make([][]float64, batch)
	for i := range inputs {
		inputs[i] = in
	}
	outs, cost, err := e.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != batch {
		t.Fatalf("outputs = %d", len(outs))
	}
	// Pipelining: batch latency well under batch x single latency.
	serial := single.LatencyPS * batch
	if cost.LatencyPS >= serial {
		t.Errorf("batch latency %d not below serial %d", cost.LatencyPS, serial)
	}
	if cost.LatencyPS <= single.LatencyPS {
		t.Errorf("batch latency %d impossibly below one inference %d", cost.LatencyPS, single.LatencyPS)
	}
	// Energy is not discounted by pipelining.
	if cost.EnergyPJ < 0.9*single.EnergyPJ*batch {
		t.Errorf("batch energy %g below %d x single %g", cost.EnergyPJ, batch, single.EnergyPJ)
	}
	// Outputs match single-inference results.
	ref, _, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(outs[0][i]-ref[i]) > 1e-9 {
			t.Errorf("batch output differs from single inference at %d", i)
		}
	}
}

func TestInferBatchValidation(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.InferBatch([][]float64{{1}}); err == nil {
		t.Error("batch before Load accepted")
	}
	net := mlp(t, 16, 16, 4)
	if _, err := e.Load(net); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.InferBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := e.InferBatch([][]float64{{1}}); err == nil {
		t.Error("wrong-size input accepted")
	}
}
