package compiler

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
)

// TestFabricMatchesEngine is the compiled fabric's value oracle: a compiled
// MLP on a cim.Fabric and a dpe.Engine with the same crossbar config give
// == outputs, the fabric's stream k against the engine's noise key k, and
// the fabric's compute ledger for one stream is the engine's
// PredictBatchCost(1) — biases included.
func TestFabricMatchesEngine(t *testing.T) {
	small := func(cellBits int) crossbar.Config {
		xb := crossbar.DefaultConfig()
		xb.Rows, xb.Cols, xb.CellBits = 4, 4, cellBits
		return xb
	}
	mlp := []int{8, 16, 4}
	cases := []struct {
		name       string
		xb         crossbar.Config
		functional bool
		noise      float64
		sizes      []int
		biased     bool
	}{
		{"default/functional", crossbar.DefaultConfig(), true, 0, mlp, false},
		{"default/bitserial", crossbar.DefaultConfig(), false, 0, mlp, false},
		{"default/noisy", crossbar.DefaultConfig(), false, 0.05, mlp, false},
		{"4x4/functional", small(2), true, 0, mlp, false},
		{"4x4/bitserial", small(2), false, 0, mlp, false},
		{"4x4/noisy_2bit", small(2), false, 0.05, mlp, false},
		{"4x4/noisy_1bit", small(1), false, 0.05, mlp, false},
		{"default/functional_256_biased", crossbar.DefaultConfig(), true, 0, []int{256, 256, 256, 256, 256, 128, 10}, true},
		{"4x4/noisy_2bit_biased", small(2), false, 0.05, mlp, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xb := tc.xb
			xb.Functional, xb.ReadNoise = tc.functional, tc.noise
			net, err := nn.NewMLP("oracle", tc.sizes, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			if tc.biased {
				rng := rand.New(rand.NewSource(7))
				for _, l := range net.Layers {
					if d, ok := l.(*nn.Dense); ok {
						for o := range d.B {
							d.B[o] = rng.Float64() - 0.5
						}
					}
				}
			}
			fcfg := cim.DefaultConfig()
			fcfg.Crossbar = xb
			plan, err := Compile(net, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			led := energy.NewLedger()
			fabric, err := cim.NewFabric(fcfg, led, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := Apply(plan, fabric); err != nil {
				t.Fatal(err)
			}
			ecfg := dpe.DefaultConfig()
			ecfg.Crossbar, ecfg.Seed = xb, fcfg.Seed
			eng, err := dpe.New(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(9))
			inputs := make([][]float64, 4)
			for k := range inputs {
				inputs[k] = make([]float64, net.InSize())
				for i := range inputs[k] {
					inputs[k][i] = rng.Float64()*2 - 1
				}
			}
			entry, sink := plan.Placements[0].Addr, plan.Placements[len(plan.Placements)-1].Addr
			// Stream 0 alone, for its ledger; streams 1.. in one run.
			var got [][]float64
			for _, batch := range [][][]float64{inputs[:1], inputs[1:]} {
				for _, in := range batch {
					if err := fabric.Stream(entry, in); err != nil {
						t.Fatal(err)
					}
				}
				out, err := fabric.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(out[sink]) != len(batch) {
					t.Fatalf("sink holds %d results for %d streams", len(out[sink]), len(batch))
				}
				got = append(got, out[sink]...)
				if len(got) == 1 {
					checkLedger(t, led.Category("compute"), eng)
				}
			}
			for k, in := range inputs {
				want, _, err := eng.InferBatchKeyed([]uint64{uint64(k)}, [][]float64{in})
				if err != nil {
					t.Fatal(err)
				}
				for j := range want[0] {
					if got[k][j] != want[0][j] {
						t.Errorf("stream %d out[%d] = %v on the fabric, %v on the engine", k, j, got[k][j], want[0][j])
					}
				}
			}
		})
	}
}

// checkLedger holds one stream's compute charge to the engine's price.
func checkLedger(t *testing.T, compute energy.Cost, eng *dpe.Engine) {
	t.Helper()
	want := eng.PredictBatchCost(1)
	if compute.LatencyPS != want.LatencyPS {
		t.Errorf("compute latency %d ps on the fabric, engine %d ps", compute.LatencyPS, want.LatencyPS)
	}
	if rel := math.Abs(compute.EnergyPJ-want.EnergyPJ) / want.EnergyPJ; rel > 1e-12 {
		t.Errorf("compute energy %.10g pJ on the fabric, engine %.10g pJ (rel %g)", compute.EnergyPJ, want.EnergyPJ, rel)
	}
}
