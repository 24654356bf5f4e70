package cimrev

// Benchmark harness: one benchmark per paper table/figure (E1-E7 in
// DESIGN.md), plus ablation benches for the design choices the simulator
// exposes and micro-benchmarks for the hot substrates.
//
// The per-figure benchmarks report the reproduced quantities through
// b.ReportMetric (simulated-time ratios), while ns/op measures the
// simulator's own execution speed.

import (
	"fmt"
	"math/rand"
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/crossbar"
	"cimrev/internal/dataflow"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/experiments"
	"cimrev/internal/fault"
	"cimrev/internal/isa"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
	"cimrev/internal/vonneumann"
)

// --- E1: Fig 2 ---

func BenchmarkFig2BytesPerFlop(b *testing.B) {
	var res *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalDecline, "decline_x")
	b.ReportMetric(-res.Slope, "decade_slope")
}

// --- E2: Table 1 ---

func BenchmarkTable1Comparison(b *testing.B) {
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.InMemory.MaxScale), "cim_scale_units")
	b.ReportMetric(res.InMemory.WorkLostPct, "cim_worklost_pct")
	b.ReportMetric(res.InMemory.ReachablePct, "cim_reach_pct")
}

// --- E3: Table 2 ---

func BenchmarkTable2Suitability(b *testing.B) {
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Agreement, "agreement_pct")
}

// --- E4-E6: Section VI latency / bandwidth / power ---

// secVISweep caches the sweep across the three metric benchmarks.
func secVISweep(b *testing.B) *experiments.SecVIResult {
	b.Helper()
	res, err := experiments.SecVI([]int{512, 1024, 2048})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkSecVILatency(b *testing.B) {
	var res *experiments.SecVIResult
	for i := 0; i < b.N; i++ {
		res = secVISweep(b)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.LatVsCPU, "lat_vs_cpu_x")
	b.ReportMetric(last.LatVsGPU, "lat_vs_gpu_x")
}

func BenchmarkSecVIBandwidth(b *testing.B) {
	var res *experiments.SecVIResult
	for i := 0; i < b.N; i++ {
		res = secVISweep(b)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.BWVsCPU, "bw_vs_cpu_x")
	b.ReportMetric(last.BWVsGPU, "bw_vs_gpu_x")
}

func BenchmarkSecVIPower(b *testing.B) {
	var res *experiments.SecVIResult
	for i := 0; i < b.N; i++ {
		res = secVISweep(b)
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.PowVsCPU, "pow_vs_cpu_x")
	b.ReportMetric(last.PowVsCPUSingle, "pow_vs_cpu1_x")
	b.ReportMetric(last.PowVsGPU, "pow_vs_gpu_x")
}

// --- E7: Section VI scale ---

func BenchmarkSecVIScale(b *testing.B) {
	var res *experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Scale([]int{1, 4, 8}, 256, 32)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(100*last.Efficiency, "eff8_pct")
	b.ReportMetric(last.UpdateStallPct, "stall_pct")
	b.ReportMetric(last.UpdateHiddenPct, "hidden_pct")
}

// --- Ablations ---

// BenchmarkAblationADCBits sweeps ADC resolution: energy per MVM rises with
// resolution while accuracy improves (see crossbar tests for the accuracy
// side).
func BenchmarkAblationADCBits(b *testing.B) {
	for _, bits := range []int{4, 6, 8, 10} {
		b.Run(benchName("adc", bits), func(b *testing.B) {
			cfg := crossbar.DefaultConfig()
			cfg.Rows, cfg.Cols = 64, 64
			cfg.ADCBits = bits
			cfg.Functional = true
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			w := randomMatrix(rng, 64, 64)
			if _, err := xb.Program(w); err != nil {
				b.Fatal(err)
			}
			in, out := randomVector(rng, 64), make([]float64, 64)
			var cost energy.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost, err = xb.MVMInto(out, in, crossbar.NoNoise)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cost.EnergyPJ, "pJ/mvm")
		})
	}
}

// BenchmarkAblationCellBits sweeps bits-per-cell: fewer bits per cell means
// more slice arrays (more parallel hardware, more energy).
func BenchmarkAblationCellBits(b *testing.B) {
	for _, bits := range []int{1, 2, 4} {
		b.Run(benchName("cell", bits), func(b *testing.B) {
			cfg := crossbar.DefaultConfig()
			cfg.Rows, cfg.Cols = 64, 64
			cfg.CellBits = bits
			cfg.Functional = true
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			if _, err := xb.Program(randomMatrix(rng, 64, 64)); err != nil {
				b.Fatal(err)
			}
			in, out := randomVector(rng, 64), make([]float64, 64)
			var cost energy.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				cost, err = xb.MVMInto(out, in, crossbar.NoNoise)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cost.EnergyPJ, "pJ/mvm")
		})
	}
}

// BenchmarkAblationWriteHiding compares reprogram latency with and without
// write-asymmetry hiding.
func BenchmarkAblationWriteHiding(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, err := nn.NewDense(256, 256, rng)
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.NewNetwork("wh", d)
	if err != nil {
		b.Fatal(err)
	}
	for _, hide := range []bool{false, true} {
		name := "stall"
		if hide {
			name = "hidden"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := dpe.New(dpe.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				b.Fatal(err)
			}
			var cost energy.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost, err = eng.Reprogram(net, hide)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.LatencyPS)/1e6, "us_simulated")
		})
	}
}

// BenchmarkAblationRedundancy measures failover cost against spare count.
func BenchmarkAblationRedundancy(b *testing.B) {
	b.Run("with-spare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lost := runFailover(b, true)
			b.ReportMetric(lost, "worklost_pct")
		}
	})
	b.Run("no-spare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lost := runFailover(b, false)
			b.ReportMetric(lost, "worklost_pct")
		}
	})
}

func runFailover(b *testing.B, withSpare bool) float64 {
	b.Helper()
	fabric, err := NewFabric(DefaultFabricConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := Address{Tile: 0}
	mid := Address{Tile: 1}
	spare := Address{Tile: 1, Unit: 1}
	sink := Address{Tile: 2}
	for _, a := range []Address{src, mid, spare, sink} {
		if _, err := fabric.AddUnit(a, cim.KindCompute); err != nil {
			b.Fatal(err)
		}
	}
	if err := fabric.Connect(src, mid); err != nil {
		b.Fatal(err)
	}
	if err := fabric.Connect(mid, sink); err != nil {
		b.Fatal(err)
	}
	guard, err := fault.NewGuard(fabric, nil)
	if err != nil {
		b.Fatal(err)
	}
	if withSpare {
		if err := guard.AddSpare(mid, spare); err != nil {
			b.Fatal(err)
		}
	}
	const streams = 16
	for i := 0; i < streams; i++ {
		if err := guard.StreamHeld(src, []float64{float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := guard.Fail(mid); err != nil {
		b.Fatal(err)
	}
	out, err := fabric.Run()
	if err != nil {
		b.Fatal(err)
	}
	delivered := len(out[sink])
	return 100 * float64(streams-delivered) / streams
}

// --- Substrate micro-benchmarks ---

// BenchmarkCrossbarMVMBatch is the kernel's batch trajectory:
// MVMBatchInto over a size × batch sweep, in bit-serial, functional, and
// noisy (per-item keyed sources) modes, then the functional vector routines'
// tails: odd batches, whose last item takes its one-item pass, the benchmark
// MLP's last layer as programmed, 128 rows × 10 columns, two pad columns in
// its third group, and 125 rows, whose last input lane the vector quantizer
// reads masked, one lane of four. "ns/vec" is the per-vector time at
// that batch size; the b1 rows are what MVMInto costs. Rows are timed one
// after another, so on a host whose speed drifts a row-to-row ratio
// carries the drift. The regression guard for the kernel is the repository
// benchmark (`benchmark/run.sh compare` on sim_functional_b64 and
// sim_bitserial_b1), which scales by a reference kernel timed alongside.
func BenchmarkCrossbarMVMBatch(b *testing.B) {
	run := func(name string, cfg crossbar.Config, rows, cols, batch int, noisy bool) {
		b.Run(name, func(b *testing.B) {
			cfg.Rows, cfg.Cols = rows, cols
			xb, err := crossbar.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			if _, err := xb.Program(randomMatrix(rng, rows, cols)); err != nil {
				b.Fatal(err)
			}
			ins := make([][]float64, batch)
			dsts := make([][]float64, batch)
			slab := make([]float64, batch*cols)
			for i := range ins {
				ins[i] = randomVector(rng, rows)
				dsts[i] = slab[i*cols : (i+1)*cols]
			}
			// A noisy row takes a fresh source per item per iteration and
			// rotates its inputs, as the engine issues them. With one input
			// and one source repeated, the branch predictor learns which of
			// the call's draws leave the sampler's fast path, and the row
			// flatters a branchy sampler by about a fifth (docs/PERF.md).
			var nss []NoiseSource
			var root NoiseSource
			pool := ins
			if noisy {
				root = NewNoiseSource(7)
				nss = make([]NoiseSource, batch)
				for len(pool) < 64 {
					pool = append(pool, randomVector(rng, rows))
				}
				ins = make([][]float64, batch)
			}
			next := func(i int) {
				for j := range nss {
					k := i*batch + j
					ins[j] = pool[k%len(pool)]
					nss[j] = root.Derive(uint64(k)) // two finalizers: ns against a 25–700 µs call
				}
			}
			// Warm the scratch pool outside the timed region so the
			// archived allocs/op reflect steady state (0), not the
			// one-time pool fill.
			next(0)
			if _, err := xb.MVMBatchInto(dsts, ins, nss); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(i)
				if _, err := xb.MVMBatchInto(dsts, ins, nss); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // keep ReportMetric's map work out of allocs/op
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/vec")
		})
	}
	for _, n := range []int{64, 128, 256, 512} {
		for _, batch := range []int{1, 8, 32, 128} {
			base := crossbar.DefaultConfig() // 8b weights, 8b inputs
			run(fmt.Sprintf("%dx%d_8b_b%d", n, n, batch), base, n, n, batch, false)

			fn := base
			fn.Functional = true
			run(fmt.Sprintf("%dx%d_8b_func_b%d", n, n, batch), fn, n, n, batch, false)

			noisy := base
			noisy.ReadNoise = 0.02
			run(fmt.Sprintf("%dx%d_8b_noisy_b%d", n, n, batch), noisy, n, n, batch, true)
		}
	}
	fn := crossbar.DefaultConfig()
	fn.Functional = true
	for _, tail := range []struct{ rows, cols, batch int }{{128, 128, 7}, {128, 128, 33}, {128, 10, 1}, {128, 10, 64}, {125, 128, 1}, {125, 128, 64}} {
		run(fmt.Sprintf("%dx%d_8b_func_b%d", tail.rows, tail.cols, tail.batch), fn, tail.rows, tail.cols, tail.batch, false)
	}
}

// BenchmarkEngineInferBatch tracks the DPE-level batch win — the full
// stage pipeline (quantize, tile dispatch, bias, digital stages) on the
// GEMM path, not just the raw kernel — with allocations reported.
func BenchmarkEngineInferBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("mlp256_b%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net, err := nn.NewMLP("bench", []int{256, 256, 10}, rng)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := dpe.New(dpe.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				b.Fatal(err)
			}
			inputs := make([][]float64, batch)
			for i := range inputs {
				inputs[i] = randomVector(rng, 256)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.InferBatch(inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/vec")
		})
	}
}

// BenchmarkEngineWorkloads is the engine rung of the repository benchmark's
// four workloads (benchmark/workloads.go), without the benchmark around it:
// the same two models on the same arrays, called the way the workloads call
// the engine — Infer one input at a time on the noisy bit-serial
// configuration, InferBatchKeyed with rotating inputs and keys on the
// functional one, at the batch sizes the closed loop fixes (64) and the
// serving workloads' batcher lands on (1–4 on the big model, 1–16 on the
// small), and on the big model at 16 and 32 between them: 16 is where the
// tile's item chunks first cover a pool of any width a host here has, and 16
// and 32 bracket the pool's fan-out work (internal/parallel's fanOutMACs),
// below which a 256-wide read runs inline on its caller. "ns/vec" is the
// time per inference; B/op beside allocs/op says what a call leaves the
// collector (the output panel, and little else). Run it as `make bench-alt
// BENCH=EngineWorkloads CPU=1,2`: the pool's width follows -cpu, and what
// two workers buy is one of the things the rows are for (docs/PERF.md). The
// big_twin rows are the big functional model served by its Von Neumann twin
// (vonneumann.Backend.InferBatch, same inputs): what a VN-routed flush costs
// the host beside the engine's row of the same batch.
func BenchmarkEngineWorkloads(b *testing.B) {
	const inputPool = 1021 // as the benchmark: prime, so rotating batches visit every input
	// how is the call a row times: "noisy" (Infer on the noisy bit-serial
	// configuration), "keyed" (InferBatchKeyed) or "twin" (the twin's InferBatch).
	run := func(name string, sizes []int, xbar, batch int, how string) {
		b.Run(name, func(b *testing.B) {
			cfg := dpe.DefaultConfig()
			cfg.Crossbar.Rows, cfg.Crossbar.Cols = xbar, xbar
			if how == "noisy" {
				cfg.Crossbar.Functional = false
				cfg.Crossbar.ReadNoise = 0.01
			}
			net, err := nn.NewMLP("bench", sizes, rand.New(rand.NewSource(4242)))
			if err != nil {
				b.Fatal(err)
			}
			eng, err := dpe.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				b.Fatal(err)
			}
			var twin *vonneumann.Backend
			if how == "twin" {
				twin, err = vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
				if err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			pool := make([][]float64, inputPool)
			for i := range pool {
				pool[i] = randomVector(rng, sizes[0])
			}
			ins := make([][]float64, batch)
			seqs := make([]uint64, batch)
			var next uint64
			call := func() error {
				for j := range ins {
					seqs[j] = next + uint64(j)
					ins[j] = pool[seqs[j]%inputPool]
				}
				next += uint64(batch)
				switch how {
				case "noisy":
					_, _, err = eng.Infer(ins[0])
				case "twin":
					_, _, err = twin.InferBatch(ins)
				default:
					_, _, err = eng.InferBatchKeyed(seqs, ins)
				}
				return err
			}
			for i := 0; i < 8; i++ { // fill the scratch pools
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/vec")
		})
	}
	big, small := []int{256, 256, 256, 256, 256, 128, 10}, []int{16, 16, 10}
	run("big_bitserial_noisy_b1", big, 128, 1, "noisy")
	for _, batch := range []int{1, 4, 16, 32, 64} {
		run(fmt.Sprintf("big_functional_b%d", batch), big, 128, batch, "keyed")
	}
	for _, batch := range []int{1, 64} {
		run(fmt.Sprintf("big_twin_b%d", batch), big, 128, batch, "twin")
	}
	for _, batch := range []int{1, 2, 4, 16} {
		run(fmt.Sprintf("small_functional_b%d", batch), small, 64, batch, "keyed")
	}
}

// BenchmarkEngineLoad is the write path: dpe.Engine.Load of the repository
// benchmark's two models on the arrays the workloads use, the call every
// setup and every rolling reprogram makes. The engine is built once and
// loaded every iteration, so after the first the tiles reprogram in place
// as a same-shape Reprogram does. The big model loads in both modes: the
// functional one fuses the stored levels into a weight panel, the
// bit-serial one transposes them into bit planes.
func BenchmarkEngineLoad(b *testing.B) {
	run := func(name string, sizes []int, xbar int, functional bool) {
		b.Run(name, func(b *testing.B) {
			cfg := dpe.DefaultConfig()
			cfg.Crossbar.Rows, cfg.Crossbar.Cols = xbar, xbar
			if !functional {
				cfg.Crossbar.Functional = false
				cfg.Crossbar.ReadNoise = 0.01
			}
			net, err := nn.NewMLP("bench", sizes, rand.New(rand.NewSource(4242)))
			if err != nil {
				b.Fatal(err)
			}
			eng, err := dpe.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Load(net); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Load(net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	big, small := []int{256, 256, 256, 256, 256, 128, 10}, []int{16, 16, 10}
	run("big_functional", big, 128, true)
	run("big_bitserial", big, 128, false)
	run("small_functional", small, 64, true)
}

func BenchmarkDPEInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewMLP("bench", []int{256, 256, 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dpe.New(dpe.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		b.Fatal(err)
	}
	in := randomVector(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Infer(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataflowPipeline(b *testing.B) {
	relu, err := dataflow.DefaultFuncFactory(packet.Address{}, isa.FuncReLU, nil)
	if err != nil {
		b.Fatal(err)
	}
	g := dataflow.NewGraph()
	prev := dataflow.NodeID(-1)
	var first dataflow.NodeID
	for i := 0; i < 8; i++ {
		id, err := g.AddNode("n", packet.Address{Unit: uint16(i)}, relu)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = id
		} else if err := g.Connect(prev, id); err != nil {
			b.Fatal(err)
		}
		prev = id
	}
	eng, err := dataflow.NewEngine(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	in := randomVector(rand.New(rand.NewSource(1)), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Inject(first, in); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s-%d", prefix, v)
}

func randomMatrix(rng *rand.Rand, m, n int) [][]float64 {
	w := make([][]float64, m)
	for r := range w {
		w[r] = make([]float64, n)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// BenchmarkAssociativeSearch measures TCAM longest-prefix match and
// associative row-parallel arithmetic.
func BenchmarkAssociativeSearch(b *testing.B) {
	tc, err := NewTCAM(256, 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 256; r++ {
		prefix := uint64(rng.Uint32())
		bits := 8 + rng.Intn(24)
		mask := (^uint64(0) << (32 - bits)) & 0xFFFFFFFF
		if err := tc.Store(r, prefix&mask, mask); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.LongestPrefixMatch(uint64(rng.Uint32()))
	}
}

// BenchmarkDPEBatchPipelined reports the pipelined throughput advantage.
func BenchmarkDPEBatchPipelined(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewMLP("bench", []int{128, 128, 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dpe.New(dpe.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		b.Fatal(err)
	}
	inputs := make([][]float64, 32)
	for i := range inputs {
		inputs[i] = randomVector(rng, 128)
	}
	var batchCost energy.Cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, batchCost, err = eng.InferBatch(inputs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batchCost.LatencyPS)/float64(len(inputs))/1000, "ns_sim_per_inf")
}
