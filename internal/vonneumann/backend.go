package vonneumann

import (
	"fmt"
	"math"
	"sync"

	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
)

// Backend is the executing Von Neumann twin of a deterministic DPE engine:
// one execution, two price lists. The arithmetic is a private dpe.Engine of
// the same crossbar config with no noise and no faults — the only
// configurations a twin exists for — so the twin's outputs equal the
// engine's with == because they come from the same kernels, whichever
// kernel a Program picks, at any batch size and worker-pool width
// (docs/HYBRID.md).
//
// The cost is not the engine's. The Backend prices each stage as a blocked
// integer GEMM on the modelled machine: one roofline kernel per dense or conv
// panel (weights stream from memory unless the whole quantized network fits
// in the LLC), so the simulated latency and energy are honest Von Neumann
// numbers. Bit-serial configs pay the full replication factor — reproducing
// the per-(input bit, slice) ADC transfer digitally is a slices x InputBits/2
// more expensive integer kernel, and the model says so rather than
// pretending the cheap functional GEMM suffices.
//
// A Backend is safe for concurrent InferBatch calls; Reload swaps in a
// freshly loaded engine under the write half of a RW lock. Noisy or faulty
// configurations have no twin — NewBackend rejects ReadNoise > 0, and
// callers with fault injection enabled must not build one (the dispatcher
// pins that traffic to CIM).
type Backend struct {
	mach Machine
	hcfg HierarchyConfig
	xcfg crossbar.Config

	mu  sync.RWMutex
	net *nn.Network
	eng *dpe.Engine
	// resident is true when every stage's quantized weight panel fits in
	// the LLC together, making steady-state weight traffic free.
	resident bool
}

// NewBackend builds the executing twin for a deterministic crossbar config
// and network, priced on mach with the hcfg cache geometry. It rejects
// noisy configs (there is no digital twin for Gaussian analog noise) and
// invalid cache geometries, and fails on layers the DPE cannot map.
func NewBackend(mach Machine, hcfg HierarchyConfig, xcfg crossbar.Config, net *nn.Network) (*Backend, error) {
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	if err := hcfg.Validate(); err != nil {
		return nil, err
	}
	if err := xcfg.Validate(); err != nil {
		return nil, err
	}
	if xcfg.ReadNoise > 0 {
		return nil, fmt.Errorf("vonneumann: no digital twin for ReadNoise %g (noisy traffic is pinned to CIM)", xcfg.ReadNoise)
	}
	b := &Backend{mach: mach, hcfg: hcfg, xcfg: xcfg}
	if err := b.Reload(net); err != nil {
		return nil, err
	}
	return b, nil
}

// Config returns the crossbar configuration the twin replicates.
func (b *Backend) Config() crossbar.Config { return b.xcfg }

// Machine returns the pricing machine model.
func (b *Backend) Machine() Machine { return b.mach }

// Network returns the currently loaded network.
func (b *Backend) Network() *nn.Network {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.net
}

// Reload loads net into a fresh engine and swaps it in — the digital
// analogue of a shadow-pair reprogram. After the first load the topology
// must stay identical, mirroring dpe.Engine.Reprogram. In-flight InferBatch
// calls finish on the engine they started on: the swap waits for them, the
// load does not make them wait. A failed Reload changes nothing.
func (b *Backend) Reload(net *nn.Network) error {
	if net == nil || len(net.Layers) == 0 {
		return fmt.Errorf("vonneumann: empty network")
	}
	if cur := b.Network(); cur != nil {
		if len(net.Layers) != len(cur.Layers) {
			return fmt.Errorf("vonneumann: Reload requires identical topology")
		}
		for i, l := range net.Layers {
			if was := cur.Layers[i]; l.InSize() != was.InSize() || l.OutSize() != was.OutSize() {
				return fmt.Errorf("vonneumann: Reload layer %d shape mismatch", i)
			}
		}
	}
	eng, err := dpe.New(dpe.Config{Crossbar: b.xcfg, ConvReplicas: 1})
	if err == nil {
		_, err = eng.Load(net)
	}
	if err != nil {
		return fmt.Errorf("vonneumann: %w", err)
	}
	resident := weightBytes(net) <= float64(b.hcfg.LLCSize)
	b.mu.Lock()
	b.net, b.eng, b.resident = net, eng, resident
	b.mu.Unlock()
	return nil
}

// panelShape returns the weight panel a dense or conv layer programs
// (dense: in x out; conv: the im2col matrix) and how many vectors one item
// streams through it. ok is false for a digital layer.
func panelShape(layer nn.Layer) (rows, cols, patches int, ok bool) {
	switch l := layer.(type) {
	case *nn.Dense:
		return l.InSize(), l.OutSize(), 1, true
	case *nn.Conv2D:
		return l.Kh * l.Kw * l.C, l.F, l.OutH() * l.OutW(), true
	}
	return 0, 0, 0, false
}

// weightBytes is the total quantized panel footprint (int32 elements).
func weightBytes(net *nn.Network) float64 {
	var total float64
	for _, layer := range net.Layers {
		if rows, cols, _, ok := panelShape(layer); ok {
			total += float64(rows) * float64(cols) * 4
		}
	}
	return total
}

// InferBatch runs the batch through the twin's engine, returning outputs
// bit-identical to dpe.Engine.InferBatch on the same (config, network)
// and the roofline-priced Von Neumann cost of the batch.
func (b *Backend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return b.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx is InferBatch under a trace span ("vn.infer_batch",
// annotated with the batch size). The span is a leaf: the engine runs
// untraced, since its spans would carry crossbar costs the twin does not
// charge.
func (b *Backend) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(inputs) == 0 {
		return nil, energy.Zero, fmt.Errorf("vonneumann: empty batch")
	}
	for i, in := range inputs {
		if len(in) != b.net.InSize() {
			return nil, energy.Zero, fmt.Errorf("vonneumann: input %d length %d != %d", i, len(in), b.net.InSize())
		}
	}
	sp := pc.Child("vn.infer_batch")
	outs, _, err := b.eng.InferBatch(inputs)
	if err != nil {
		sp.End(energy.Zero)
		return nil, energy.Zero, fmt.Errorf("vonneumann: %w", err)
	}
	cost := b.predictLocked(len(inputs))
	if sp.Active() {
		sp.Annotate("batch", float64(len(inputs)))
	}
	sp.End(cost)
	return outs, cost, nil
}

// PredictBatchCost prices a batch of n items without executing it — the
// dispatcher's exact Von Neumann prior (InferBatch returns the same cost).
func (b *Backend) PredictBatchCost(n int) energy.Cost {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.predictLocked(n)
}

func (b *Backend) predictLocked(n int) energy.Cost {
	// Bit-serial configs digitally replay the per-(input bit, slice) ADC
	// transfer: on average half the input bits are set, so the integer
	// kernel costs slices*InputBits/2 times the plain GEMM (never less
	// than the GEMM itself).
	replay := 1.0
	if !b.xcfg.Functional {
		numSlices := float64(b.xcfg.WeightBits / b.xcfg.CellBits)
		if r := numSlices * float64(b.xcfg.InputBits) / 2; r > 1 {
			replay = r
		}
	}
	total := energy.Zero
	for _, layer := range b.net.Layers {
		var k Kernel
		if rows, cols, patches, ok := panelShape(layer); ok {
			k = b.stageGEMM(n, rows, cols, patches, replay)
		} else {
			k = Kernel{
				Name:  layer.Name(),
				Flops: float64(n) * layer.Flops(),
				Bytes: float64(n) * 16 * float64(layer.InSize()),
			}
		}
		c, err := b.mach.Run(k)
		if err != nil {
			// Machine and kernel were validated at construction; a failure
			// here is a programming error, not a runtime condition.
			panic(err)
		}
		total = total.Seq(c)
	}
	return total
}

// stageGEMM prices one dense/conv stage for a batch of n items: the panel
// GEMM (vectors per item x patch, weights once per flush unless the whole
// quantized network is LLC-resident), plus the quantize and offset-removal
// overhead, with the bit-serial replay factor applied to the GEMM flops.
func (b *Backend) stageGEMM(n, rows, cols, patches int, replay float64) Kernel {
	vecs := float64(n) * float64(patches)
	k := GEMM(int(vecs), rows, cols, 4, float64(b.hcfg.LLCSize), b.resident)
	k.Flops *= replay
	// Input quantization (scale scan + round) and offset removal ride on
	// top of the GEMM, once per vector.
	k.Flops += vecs * (2*float64(rows) + 6*float64(cols))
	// Quantized-input traffic: one int32 vector per (item, patch).
	k.Bytes += vecs * 4 * float64(rows)
	k.Bytes = b.roundLines(k.Bytes)
	return k
}

// roundLines rounds byte traffic up to whole cache lines.
func (b *Backend) roundLines(bytes float64) float64 {
	line := float64(b.hcfg.LineSize)
	return math.Ceil(bytes/line) * line
}
