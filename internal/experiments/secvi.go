package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/parallel"
	"cimrev/internal/vonneumann"
)

// Section VI metrics and their paper bands:
//
//   - Latency (single-sample inference, the latency-critical case):
//     10-10^4x better than CPUs, 10-10^2x better than GPUs.
//   - Bandwidth: the aggregate rate at which weights are accessed during
//     compute. The DPE touches every stationary weight each pipeline
//     cycle, so its array bandwidth dwarfs the CPU's memory interface by
//     10^3-10^6x, while its per-inference effective bandwidth is
//     comparable to a modern GPU's HBM.
//   - Power (energy per inference, throughput mode: VN machines batch to
//     amortize static power): 10^3-10^6x better than CPUs, 10-10^3x
//     better than GPUs.

// SecVIBatch is the batch size Von Neumann machines use in throughput
// (power) mode.
const SecVIBatch = 64

// SecVIRow is one layer-size point of the Section VI sweep.
type SecVIRow struct {
	N int // square dense layer dimension

	DPELatencyPS int64
	DPEEnergyPJ  float64

	// Single-sample latency ratios (VN / DPE; bigger favors CIM).
	LatVsCPU, LatVsGPU float64
	// Batched energy-per-inference ratios (throughput mode: the VN
	// machines amortize static power over SecVIBatch samples).
	PowVsCPU, PowVsGPU float64
	// PowVsCPUSingle is the latency-critical single-sample energy ratio,
	// where the CPU's static power burns for the full streaming time.
	PowVsCPUSingle float64
	// Aggregate weight-access bandwidth ratio vs the CPU memory interface.
	BWVsCPU float64
	// Per-inference effective weight bandwidth over GPU HBM bandwidth
	// ("comparable": within roughly an order of magnitude either way).
	BWVsGPU float64
}

// SecVIResult is the reproduced Section VI sweep.
type SecVIResult struct {
	Rows []SecVIRow
}

// denseOnly builds a single n x n dense layer network.
func denseOnly(n int, rng *rand.Rand) (*nn.Network, error) {
	d, err := nn.NewDense(n, n, rng)
	if err != nil {
		return nil, err
	}
	return nn.NewNetwork(fmt.Sprintf("dense-%d", n), d)
}

// uniformInputs draws n input vectors of dim values uniform in [-1, 1)
// from rng, row by row: the seeded panel every sweep serves.
func uniformInputs(rng *rand.Rand, n, dim int) [][]float64 {
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	return inputs
}

// vnBatchedCost returns per-sample cost with weights streamed once per
// batch of SecVIBatch samples.
func vnBatchedCost(m vonneumann.Machine, n int) (energy.Cost, error) {
	weightBytes := 4 * float64(n) * float64(n)
	perSampleBytes := weightBytes/SecVIBatch + 4*float64(2*n)
	k := vonneumann.Kernel{
		Flops: 2 * float64(n) * float64(n),
		Bytes: perSampleBytes,
	}
	// Launch overhead amortizes across the batch.
	amortized := m
	amortized.LaunchLatencyPS = m.LaunchLatencyPS / SecVIBatch
	return amortized.Run(k)
}

// SecVI sweeps square layer sizes through the DPE and the Von Neumann
// baselines. Sweep points are independent (each owns its RNG, network, and
// engine), so they fan out across the worker pool with rows collected in
// size order — the result is bit-identical at any pool width.
func SecVI(sizes []int) (*SecVIResult, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: empty size sweep")
	}
	cpu := vonneumann.CPU()
	gpu := vonneumann.GPU()
	rows, err := parallel.MapErr(len(sizes), func(idx int) (SecVIRow, error) {
		n := sizes[idx]
		if n <= 0 {
			return SecVIRow{}, fmt.Errorf("experiments: invalid layer size %d", n)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		net, err := denseOnly(n, rng)
		if err != nil {
			return SecVIRow{}, err
		}
		eng, err := dpe.New(dpe.DefaultConfig())
		if err != nil {
			return SecVIRow{}, err
		}
		if _, err := eng.Load(net); err != nil {
			return SecVIRow{}, err
		}
		_, dpeCost, err := eng.Infer(uniformInputs(rng, 1, n)[0])
		if err != nil {
			return SecVIRow{}, err
		}

		// Single-sample latency on the baselines (weights stream).
		cpuSingle, err := cpu.Run(vonneumann.GEMM(1, n, n, 4, 32<<20, false))
		if err != nil {
			return SecVIRow{}, err
		}
		gpuSingle, err := gpu.Run(vonneumann.GEMM(1, n, n, 4, 32<<20, false))
		if err != nil {
			return SecVIRow{}, err
		}
		// Batched energy per inference.
		cpuBatch, err := vnBatchedCost(cpu, n)
		if err != nil {
			return SecVIRow{}, err
		}
		gpuBatch, err := vnBatchedCost(gpu, n)
		if err != nil {
			return SecVIRow{}, err
		}

		// Aggregate array bandwidth for a fully-populated board: every
		// cell of every array is activated each pipeline cycle in
		// throughput mode, so a board of dpe.BoardCrossbars arrays touches
		// dpe.BoardCrossbars x rows x cols weights per cycle. This is the
		// board-level capability the Section VI bandwidth claim is about;
		// the CPU comparison point is its physical memory interface.
		xb := dpe.DefaultConfig().Crossbar
		cellBytesPerWeight := float64(xb.WeightBits) / 8
		aggBW := dpe.BoardCrossbars * float64(xb.Rows*xb.Cols) * cellBytesPerWeight /
			(float64(energy.CrossbarReadLatencyPS) * 1e-12)
		effBW := eng.EffectiveWeightBandwidth(dpeCost)

		return SecVIRow{
			N:              n,
			DPELatencyPS:   dpeCost.LatencyPS,
			DPEEnergyPJ:    dpeCost.EnergyPJ,
			LatVsCPU:       ratio(cpuSingle.LatencyPS, dpeCost.LatencyPS),
			LatVsGPU:       ratio(gpuSingle.LatencyPS, dpeCost.LatencyPS),
			PowVsCPU:       cpuBatch.EnergyPJ / dpeCost.EnergyPJ,
			PowVsGPU:       gpuBatch.EnergyPJ / dpeCost.EnergyPJ,
			PowVsCPUSingle: cpuSingle.EnergyPJ / dpeCost.EnergyPJ,
			BWVsCPU:        aggBW / energy.CPUMemBandwidth,
			BWVsGPU:        effBW / energy.GPUMemBandwidth,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &SecVIResult{Rows: rows}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Format renders the sweep with the paper's bands.
func (r *SecVIResult) Format() string {
	var b strings.Builder
	b.WriteString("Section VI — Dot Product Engine vs CPU/GPU (measured ratios)\n")
	b.WriteString(fmt.Sprintf("%-6s %12s %11s %11s %11s %12s %11s %11s %11s\n",
		"n", "DPE lat", "lat/CPU", "lat/GPU", "pow/CPU", "pow/CPU(1)", "pow/GPU", "bw/CPU", "bw/GPU"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-6d %12s %10.0fx %10.1fx %10.0fx %11.0fx %10.1fx %10.0fx %10.2fx\n",
			row.N, energy.FormatLatency(row.DPELatencyPS),
			row.LatVsCPU, row.LatVsGPU, row.PowVsCPU, row.PowVsCPUSingle, row.PowVsGPU,
			row.BWVsCPU, row.BWVsGPU))
	}
	b.WriteString("\npaper bands: lat/CPU 10-10^4, lat/GPU 10-10^2, pow/CPU 10^3-10^6,\n")
	b.WriteString("             pow/GPU 10-10^3, bw/CPU 10^3-10^6, bw/GPU ~comparable\n")
	return b.String()
}

// ScaleRow is one board-count point of the scaling experiment.
type ScaleRow struct {
	Boards int
	// Efficiency is throughput(boards) / (boards x throughput(1)).
	Efficiency float64
	// UpdateStallPct / UpdateHiddenPct: fraction of wall-clock lost to a
	// weight update mid-stream, without and with asymmetry hiding.
	UpdateStallPct  float64
	UpdateHiddenPct float64
}

// ScaleResult is the reproduced Section VI scaling study.
type ScaleResult struct {
	Rows []ScaleRow
}

// Scale runs the multi-board scaling and write-asymmetry-hiding experiment:
// boards split a fixed inference batch; midway, the model is reprogrammed
// either stalling (writes on the critical path) or hidden (shadow arrays).
func Scale(boardCounts []int, layerN, batch int) (*ScaleResult, error) {
	if len(boardCounts) == 0 || layerN <= 0 || batch <= 0 {
		return nil, fmt.Errorf("experiments: invalid scale parameters")
	}
	rng := rand.New(rand.NewSource(7))
	net, err := denseOnly(layerN, rng)
	if err != nil {
		return nil, err
	}
	inputs := uniformInputs(rng, batch, layerN)

	// Board-count points are independent (each owns its cluster), so the
	// expensive simulation fans across the worker pool; the efficiency
	// normalization against the one-board point runs in a serial pass
	// afterwards, in sweep order, so results match serial execution.
	type scalePoint struct {
		batchCost, stall, hidden energy.Cost
	}
	points, err := parallel.MapErr(len(boardCounts), func(i int) (scalePoint, error) {
		boards := boardCounts[i]
		cluster, err := dpe.NewCluster(dpe.DefaultConfig(), boards, 1.0, 100e9)
		if err != nil {
			return scalePoint{}, err
		}
		if _, err := cluster.Load(net); err != nil {
			return scalePoint{}, err
		}
		_, batchCost, err := cluster.InferBatch(inputs)
		if err != nil {
			return scalePoint{}, err
		}
		// The model update: a Load of the loaded boards stalls them for the
		// whole write; standby arrays would show only its hidden price.
		stall, err := cluster.Load(net)
		if err != nil {
			return scalePoint{}, err
		}
		return scalePoint{batchCost: batchCost, stall: stall, hidden: energy.HiddenWrite(stall)}, nil
	})
	if err != nil {
		return nil, err
	}

	var oneBoard energy.Cost
	res := &ScaleResult{}
	for i, boards := range boardCounts {
		p := points[i]
		if boards == boardCounts[0] && boardCounts[0] == 1 {
			oneBoard = p.batchCost
		}
		eff := 1.0
		if oneBoard.LatencyPS > 0 {
			eff = dpe.ScalingEfficiency(oneBoard, p.batchCost, boards)
		}
		res.Rows = append(res.Rows, ScaleRow{
			Boards:          boards,
			Efficiency:      eff,
			UpdateStallPct:  100 * float64(p.stall.LatencyPS) / float64(p.batchCost.LatencyPS+p.stall.LatencyPS),
			UpdateHiddenPct: 100 * float64(p.hidden.LatencyPS) / float64(p.batchCost.LatencyPS+p.hidden.LatencyPS),
		})
	}
	return res, nil
}

// Format renders the scaling table.
func (r *ScaleResult) Format() string {
	var b strings.Builder
	b.WriteString("Section VI — multi-board scaling and write-asymmetry hiding\n")
	b.WriteString(fmt.Sprintf("%-8s %12s %18s %18s\n",
		"boards", "efficiency", "update stall", "update hidden"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-8d %11.2f%% %17.1f%% %17.3f%%\n",
			row.Boards, 100*row.Efficiency, row.UpdateStallPct, row.UpdateHiddenPct))
	}
	return b.String()
}
