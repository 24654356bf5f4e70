package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/interconnect"
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

// denseStack builds a network of dense layers of the given sizes, with no
// activation stage between them, named after its sizes ("dense-512-512").
func denseStack(rng *rand.Rand, sizes ...int) (*nn.Network, error) {
	layers := make([]nn.Layer, len(sizes)-1)
	name := fmt.Sprintf("dense-%d", sizes[0])
	for i := range layers {
		d, err := nn.NewDense(sizes[i], sizes[i+1], rng)
		if err != nil {
			return nil, err
		}
		layers[i], name = d, fmt.Sprintf("%s-%d", name, sizes[i+1])
	}
	return nn.NewNetwork(name, layers...)
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
		net, err := denseStack(rng, n, n)
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

// ScaleRow is one (network, board-count) point of the scaling experiment.
type ScaleRow struct {
	Net    string
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

// Scale runs the multi-board scaling and write-asymmetry-hiding experiment
// on a layerN x layerN dense layer and on the four-layer [layerN, layerN/2,
// layerN/2, layerN/2, 10] dense stack: boards split a fixed inference batch;
// midway, the model is reprogrammed either stalling (writes on the critical
// path) or hidden (shadow arrays). Board replicas differ only in their noise
// seed, which moves no cost, so one loaded engine per net prices every
// board's share with the PredictBatchCost its InferBatch charges.
func Scale(boardCounts []int, layerN, batch int) (*ScaleResult, error) {
	if len(boardCounts) == 0 || slices.Min(boardCounts) <= 0 || layerN <= 0 || batch <= 0 {
		return nil, fmt.Errorf("experiments: invalid scale parameters")
	}
	// Boards reach host-attached board 0 through 1 m photonic links.
	link, err := interconnect.NewPhotonicLink(1.0, 100e9)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	res := &ScaleResult{}
	for _, sizes := range [][]int{{layerN, layerN}, {layerN, layerN / 2, layerN / 2, layerN / 2, 10}} {
		net, err := denseStack(rng, sizes...)
		if err != nil {
			return nil, err
		}
		eng, err := dpe.New(dpe.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if _, err := eng.Load(net); err != nil {
			return nil, err
		}
		// The model update: a Load of the loaded engine stalls it for the
		// whole write. Boards write in parallel, so the stall is one
		// board's; standby arrays would show only its hidden price.
		stall, err := eng.Load(net)
		if err != nil {
			return nil, err
		}
		hidden := energy.HiddenWrite(stall).LatencyPS
		xfer, err := link.Transfer(8 * (net.InSize() + net.OutSize()))
		if err != nil {
			return nil, err
		}
		for _, boards := range boardCounts {
			batchCost := boardsCost(eng, xfer, boards, batch)
			res.Rows = append(res.Rows, ScaleRow{
				Net:             net.Name,
				Boards:          boards,
				Efficiency:      scalingEfficiency(eng.PredictBatchCost(batch), batchCost, boards),
				UpdateStallPct:  100 * float64(stall.LatencyPS) / float64(batchCost.LatencyPS+stall.LatencyPS),
				UpdateHiddenPct: 100 * float64(hidden) / float64(batchCost.LatencyPS+hidden),
			})
		}
	}
	return res, nil
}

// boardsCost prices a batch split round-robin across boards: board b runs
// its ceil((batch-b)/boards) items as one pipelined batch, plus one link
// transfer (xfer) per item, in series, unless it is board 0; boards run in
// parallel.
func boardsCost(eng *dpe.Engine, xfer energy.Cost, boards, batch int) energy.Cost {
	total := energy.Zero
	for b := 0; b < min(boards, batch); b++ {
		share := (batch - b + boards - 1) / boards
		cost := eng.PredictBatchCost(share)
		if b != 0 {
			cost = cost.Seq(xfer.Scale(int64(share)))
		}
		total = total.Par(cost)
	}
	return total
}

// scalingEfficiency returns throughput(boards)/(boards x throughput(1))
// for the given batch latencies: 1.0 is perfectly linear scaling.
func scalingEfficiency(oneBoard, nBoards energy.Cost, boards int) float64 {
	if nBoards.LatencyPS == 0 || oneBoard.LatencyPS == 0 || boards <= 0 {
		return 0
	}
	return float64(oneBoard.LatencyPS) / float64(nBoards.LatencyPS) / float64(boards)
}

// Format renders the scaling table.
func (r *ScaleResult) Format() string {
	var b strings.Builder
	b.WriteString("Section VI — multi-board scaling and write-asymmetry hiding\n")
	b.WriteString(fmt.Sprintf("%-26s %-8s %12s %18s %18s\n",
		"net", "boards", "efficiency", "update stall", "update hidden"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-26s %-8d %11.2f%% %17.1f%% %17.3f%%\n",
			row.Net, row.Boards, 100*row.Efficiency, row.UpdateStallPct, row.UpdateHiddenPct))
	}
	return b.String()
}
