package dpe

import (
	"math/rand"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/nn"
)

// priceBatches are the batch sizes the price suite charges: one item, the
// first few pipelined ones, and powers of two up to a full panel.
var priceBatches = []int{1, 2, 3, 4, 7, 8, 16, 64}

// oracleBatchCost is the batch cost written out from its definition, apart
// from the engine's price: per item, a dense stage is its tile read plus
// one shift-add per output for the bias, a conv stage ceil(patches /
// replicas) tile-read latencies and every patch's read energy, a digital
// stage one buffer access; a batch of n is the summed stages plus (n-1)
// bottleneck-stage latencies, and n times the per-item energy.
func oracleBatchCost(e *Engine, n int) energy.Cost {
	var fill energy.Cost
	var bottleneck int64
	for _, s := range e.stages {
		var c energy.Cost
		switch {
		case s.dense != nil:
			read := s.tile.Cost()
			c = energy.Cost{LatencyPS: read.LatencyPS, EnergyPJ: read.EnergyPJ + float64(s.dense.layer.OutSize())*energy.ShiftAddEnergyPJ}
		case s.conv != nil:
			read := s.tile.Cost()
			patches := s.conv.OutH() * s.conv.OutW()
			waves := (patches + e.cfg.ConvReplicas - 1) / e.cfg.ConvReplicas
			c = energy.Cost{LatencyPS: read.LatencyPS * int64(waves), EnergyPJ: read.EnergyPJ * float64(patches)}
		default:
			c = energy.Cost{
				LatencyPS: energy.EDRAMAccessLatencyPS,
				EnergyPJ:  float64(s.layer.InSize()) * (energy.ShiftAddEnergyPJ + energy.EDRAMAccessEnergyPJPerByte),
			}
		}
		fill.LatencyPS += c.LatencyPS
		fill.EnergyPJ += c.EnergyPJ
		bottleneck = max(bottleneck, c.LatencyPS)
	}
	return energy.Cost{LatencyPS: fill.LatencyPS + int64(n-1)*bottleneck, EnergyPJ: fill.EnergyPJ * float64(n)}
}

// requirePriceIsCharged runs batches of every priceBatches size through e,
// keyed and unkeyed, and requires PredictBatchCost(n), the oracle and the
// charged cost to agree with == in both fields.
func requirePriceIsCharged(t *testing.T, label string, e *Engine) {
	t.Helper()
	for _, n := range priceBatches {
		ins := noisyInputs(n, e.net.InSize(), int64(n))
		_, charged, err := e.InferBatch(ins)
		if err != nil {
			t.Fatalf("%s, n=%d: %v", label, n, err)
		}
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(977 * i)
		}
		_, keyed, err := e.InferBatchKeyed(seqs, ins)
		if err != nil {
			t.Fatalf("%s, n=%d keyed: %v", label, n, err)
		}
		price, oracle := e.PredictBatchCost(n), oracleBatchCost(e, n)
		if price != oracle || charged != price || keyed != price {
			t.Errorf("%s, n=%d: PredictBatchCost %+v, oracle %+v, charged %+v, keyed %+v",
				label, n, price, oracle, charged, keyed)
		}
	}
}

// TestPredictBatchCostIsCharged pins the crossbar price list: on every
// engine shape — functional and bit-serial MLPs whose tiles span several
// block rows, a LeNet-style conv at one and at four replicas, a faulted
// engine whose stuck columns were remapped to spares, and an engine loaded
// again with a network of another shape — PredictBatchCost(n) is exactly
// what InferBatch and InferBatchKeyed charge for n items, and exactly the
// cost algebra written out.
func TestPredictBatchCostIsCharged(t *testing.T) {
	load := func(cfg Config, net *nn.Network) *Engine {
		t.Helper()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Load(net); err != nil {
			t.Fatal(err)
		}
		return e
	}
	requirePriceIsCharged(t, "functional mlp", load(testConfig(), mlp(t, 100, 70, 10)))
	requirePriceIsCharged(t, "bit-serial mlp", load(noisyConfig(), mlp(t, 100, 70, 10)))

	lenet, err := nn.NewLeNetStyle("lenet", 8, 32, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 4} {
		cfg := testConfig()
		cfg.ConvReplicas = replicas
		requirePriceIsCharged(t, "lenet", load(cfg, lenet))
	}

	faulty := healthTestConfig()
	faulty.Crossbar.SpareCols = 24
	faulty.Faults = faultinject.Model{StuckLowRate: 0.001, StuckHighRate: 0.001, Seed: 7}
	e := load(faulty, healthTestNet(t, 5))
	if rep := e.HealthCheck().Total; rep.SparesUsed == 0 {
		t.Fatalf("faulted engine used no spares (%+v): the case is not exercised", rep)
	}
	requirePriceIsCharged(t, "stuck cells with spares", e)

	e = load(testConfig(), mlp(t, 100, 70, 10))
	before := e.PredictBatchCost(4)
	if _, err := e.Load(mlp(t, 40, 150, 20)); err != nil {
		t.Fatal(err)
	}
	if e.PredictBatchCost(4) == before {
		t.Fatal("reshaped engine kept its old price")
	}
	requirePriceIsCharged(t, "reloaded at another shape", e)
}
