// Package dpe implements the Dot Product Engine, the paper's Section VI
// system: "we have implemented [a] static data flow CIM model which enables
// us to program and reconfigure the CIM for classes of neural networks",
// the follow-on to ISAAC [49] "extended to be more programmable".
//
// An Engine holds a neural network entirely in crossbar arrays: dense
// layers map to tiles of memristive crossbars, convolutions are lowered via
// im2col and streamed patch-by-patch through replicated filter crossbars,
// and activations run on digital micro-units. Because the weights never
// move, each inference costs only input/output streaming plus in-place
// analog reads — the root of the latency, bandwidth, and power advantages
// Section VI reports and this package's experiments reproduce.
//
// The simulator exploits the same spatial parallelism the hardware does:
// Load and Reprogram fan independent layers across the internal/parallel
// worker pool, Cluster fans independent boards, and InferBatch advances its
// batch stage by stage, handing each dense or conv stage's tile the whole
// item panel — the fan-out of a batch is the tile's (item chunk ×
// column-block group) tasks, not its items, and a dense stage's merge, bias
// and elementwise activation finish inside the task that computed the
// elements — all with deterministic index-ordered reductions, so
// outputs and energy/latency totals are bit-identical to serial execution
// at any pool width (see docs/PARALLELISM.md). Analog read noise comes
// from a counter-based internal/noise tree keyed by (seed, inference
// sequence, stage, patch, block, position), so noisy batches fan out
// exactly like noise-free ones and still reproduce bit-identically;
// per-engine counters use atomics and are safe to read concurrently.
package dpe

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cimrev/internal/crossbar"
	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// Config configures an Engine.
type Config struct {
	// Crossbar configures the underlying arrays.
	Crossbar crossbar.Config
	// ConvReplicas is how many copies of each convolution's filter
	// crossbar exist; patches stream through replicas in parallel.
	ConvReplicas int
	// Seed drives analog noise.
	Seed int64
	// Faults configures device-fault injection (stuck cells, endurance
	// drift, transient write failures) across every crossbar in the
	// engine. The zero model disables injection entirely; see
	// internal/faultinject and docs/FAULTS.md. Stage i derives fault
	// child i of the model's root source, and tiles derive one
	// grandchild per block, so fault positions are stable at any
	// worker-pool width.
	Faults faultinject.Model
}

// BoardCrossbars is how many DefaultConfig arrays a fully-populated DPE
// board carries (ISAAC-scale chips hold on the order of 10^4 arrays per
// package): the board behind Section VI's aggregate bandwidth and Table 2's
// in-array rate.
const BoardCrossbars = 16384

// DefaultConfig returns ISAAC-scale arrays in functional-simulation mode
// with 4-way conv replication.
func DefaultConfig() Config {
	xb := crossbar.DefaultConfig()
	xb.Functional = true
	return Config{Crossbar: xb, ConvReplicas: 4, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ConvReplicas <= 0 {
		return fmt.Errorf("dpe: ConvReplicas must be positive, got %d", c.ConvReplicas)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("dpe: %w", err)
	}
	return c.Crossbar.Validate()
}

// stage is one loaded layer.
type stage struct {
	layer nn.Layer
	// tile holds weights for Dense and Conv2D stages.
	tile *crossbar.Tile
	// conv is set for Conv2D stages.
	conv *nn.Conv2D
	// dense is set for Dense stages.
	dense *nn.Dense
	// act is set for activation stages.
	act *nn.ActivationLayer
	// finish, on a Dense stage, is what the tile's tasks run on every
	// finished output stripe: the bias add, then — when the next stage is an
	// elementwise activation — that activation. That stage is then fused: it
	// keeps its slot, its span and its simulated cost, and touches no data.
	finish func(c0 int, stripe []float64)
	fused  bool
}

// linkStages derives each Dense stage's finish, and the activation stages
// that fuses, from the layer sequence alone. Softmax is not elementwise and
// never fuses; a conv stage scatters its patches itself, so the activation
// behind it runs as a stage.
func linkStages(stages []stage) {
	for i := range stages {
		stages[i].act, _ = stages[i].layer.(*nn.ActivationLayer)
	}
	elementwise := func(a *nn.ActivationLayer) bool { return a != nil && a.Kind() != nn.ActSoftmax }
	for i := range stages {
		s := &stages[i]
		s.fused = i > 0 && stages[i-1].dense != nil && elementwise(s.act)
		d := s.dense
		if d == nil {
			continue
		}
		var act *nn.ActivationLayer
		if i+1 < len(stages) && elementwise(stages[i+1].act) {
			act = stages[i+1].act
		}
		s.finish = func(c0 int, stripe []float64) {
			addBias(stripe, d.B[c0:])
			if act != nil {
				act.Kind().Apply(stripe)
			}
		}
	}
}

func addBias(stripe, b []float64) {
	for j, v := range b[:len(stripe)] {
		stripe[j] += v
	}
}

// panel is an n × width activation panel: one slab and its row views.
type panel struct {
	slab []float64
	rows [][]float64
}

// Engine is a programmed Dot Product Engine.
type Engine struct {
	cfg Config
	src noise.Source
	// faultSrc is the root of the engine's fault-source tree (valid only
	// when cfg.Faults is enabled); stage i's tile derives child i.
	faultSrc noise.Source
	net      *nn.Network
	stages   []stage

	// seq numbers inferences for noise derivation: inference k (counted
	// since Load) draws from src.Derive(k). Infer claims one number;
	// InferBatch claims a contiguous run and assigns item i the number
	// seq0+i, so a batch's noise is identical to the same inputs run
	// through Infer one at a time — and identical at any pool width.
	seq atomic.Uint64
	// panels pools the activation panels between stages (*panel): batches
	// may run concurrently.
	panels sync.Pool
}

// getPanel returns an n × width panel whose contents are unspecified: from
// the pool, or — keep set — allocated for a caller who will keep it.
func (e *Engine) getPanel(n, width int, keep bool) *panel {
	var p *panel
	if !keep {
		p, _ = e.panels.Get().(*panel)
	}
	if p == nil {
		p = &panel{}
	}
	if cap(p.slab) < n*width {
		p.slab = make([]float64, n*width)
	}
	if cap(p.rows) < n {
		p.rows = make([][]float64, n)
	}
	p.rows = p.rows[:n]
	for i := range p.rows {
		p.rows[i] = p.slab[i*width : (i+1)*width]
	}
	return p
}

// New returns an empty engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, src: noise.NewSource(cfg.Seed)}
	if cfg.Faults.Enabled() {
		e.faultSrc = cfg.Faults.Root()
	}
	return e, nil
}

// Wear returns the engine's lifetime cell-write count: the sum of every
// stage tile's Writes(), retry pulses and retired-array history included.
// Inference never writes, so wear moves only on Load/Reprogram/Repair; the
// fleet router's wear-aware policy reads it between batches. Wear must not
// race a concurrent Load/Reprogram/Repair (serve.ShadowPair.Wear holds the
// live engine's read gate for exactly this reason).
func (e *Engine) Wear() int64 {
	var w int64
	for i := range e.stages {
		if t := e.stages[i].tile; t != nil {
			w += t.Writes()
		}
	}
	return w
}

// CrossbarCount returns the number of physical crossbar arrays in use.
func (e *Engine) CrossbarCount() int {
	var n int
	for _, s := range e.stages {
		if s.tile != nil {
			mult := 1
			if s.conv != nil {
				mult = e.cfg.ConvReplicas
			}
			n += s.tile.CrossbarCount() * mult
		}
	}
	return n
}

// WeightBytes returns the bytes of weights held stationary in the arrays.
func (e *Engine) WeightBytes() float64 {
	if e.net == nil {
		return 0
	}
	return float64(e.net.Params()) * float64(e.cfg.Crossbar.WeightBits) / 8
}

// Load programs the network into crossbar hardware, returning the
// programming cost. Layers program in parallel across their own arrays
// (latency is the max stage cost; energy sums), and the simulator fans
// the independent layers across the worker pool; per-layer costs fold in
// layer order so the total is identical at any pool width.
func (e *Engine) Load(net *nn.Network) (energy.Cost, error) {
	return e.LoadCtx(obs.Ctx{}, net)
}

// LoadCtx is Load with tracing: it opens a "dpe.load" span whose children
// are the per-layer tile.program spans (which the worker pool may retire
// in any order — attribution is by parent ID, not position).
func (e *Engine) LoadCtx(pc obs.Ctx, net *nn.Network) (energy.Cost, error) {
	sp := pc.Child("dpe.load")
	cost, err := e.load(sp, net)
	if sp.Active() {
		sp.Annotate("layers", float64(len(e.stages)))
	}
	sp.End(cost)
	return cost, err
}

func (e *Engine) load(sp obs.Ctx, net *nn.Network) (energy.Cost, error) {
	if net == nil || len(net.Layers) == 0 {
		return energy.Zero, fmt.Errorf("dpe: empty network")
	}
	stages := make([]stage, len(net.Layers))
	costs := make([]energy.Cost, len(net.Layers))
	err := parallel.ForErr(len(net.Layers), func(i int) error {
		layer := net.Layers[i]
		s := stage{layer: layer}
		switch l := layer.(type) {
		case *nn.Dense:
			tile, err := e.stageTile(i)
			if err != nil {
				return err
			}
			cost, err := tile.ProgramCtx(sp, l.WeightMatrix())
			if err != nil {
				return fmt.Errorf("dpe: program layer %d (%s): %w", i, l.Name(), err)
			}
			costs[i] = cost
			s.tile, s.dense = tile, l
		case *nn.Conv2D:
			tile, err := e.stageTile(i)
			if err != nil {
				return err
			}
			cost, err := tile.ProgramCtx(sp, l.Im2ColMatrix())
			if err != nil {
				return fmt.Errorf("dpe: program layer %d (%s): %w", i, l.Name(), err)
			}
			// Replicas program in parallel but all cells cost energy.
			cost.EnergyPJ *= float64(e.cfg.ConvReplicas)
			costs[i] = cost
			s.tile, s.conv = tile, l
		case *nn.ActivationLayer, *nn.MaxPool2D:
			// Digital stages need no programming.
		default:
			return fmt.Errorf("dpe: unsupported layer %d (%s)", i, layer.Name())
		}
		stages[i] = s
		return nil
	})
	if err != nil {
		return energy.Zero, err
	}
	total := energy.Zero
	for _, c := range costs {
		total = total.Par(c)
	}
	linkStages(stages)
	e.net = net
	e.stages = stages
	e.seq.Store(0)
	return total, nil
}

// Reprogram loads a new network of identical topology into the existing
// arrays (wear accumulates on the same physical cells). With hide=false
// the engine stalls for the full write latency; with hide=true shadow
// arrays absorb the writes behind ongoing inference (the write-asymmetry
// hiding of Section VI) and only a reconfiguration swap appears on the
// critical path.
func (e *Engine) Reprogram(net *nn.Network, hide bool) (energy.Cost, error) {
	if e.net == nil {
		return energy.Zero, fmt.Errorf("dpe: Reprogram before Load")
	}
	if net == nil || len(net.Layers) != len(e.stages) {
		return energy.Zero, fmt.Errorf("dpe: Reprogram requires identical topology")
	}
	// Layers rewrite their own arrays, so reprogramming fans across the
	// worker pool; per-layer costs fold in layer order below.
	costs := make([]energy.Cost, len(e.stages))
	err := parallel.ForErr(len(e.stages), func(i int) error {
		s := &e.stages[i]
		switch l := net.Layers[i].(type) {
		case *nn.Dense:
			if s.dense == nil || s.dense.InSize() != l.InSize() || s.dense.OutSize() != l.OutSize() {
				return fmt.Errorf("dpe: layer %d shape mismatch", i)
			}
			c, err := s.tile.Program(l.WeightMatrix())
			if err != nil {
				return err
			}
			costs[i] = c
			s.dense, s.layer = l, l
		case *nn.Conv2D:
			if s.conv == nil || s.conv.InSize() != l.InSize() || s.conv.OutSize() != l.OutSize() {
				return fmt.Errorf("dpe: layer %d shape mismatch", i)
			}
			c, err := s.tile.Program(l.Im2ColMatrix())
			if err != nil {
				return err
			}
			c.EnergyPJ *= float64(e.cfg.ConvReplicas)
			costs[i] = c
			s.conv, s.layer = l, l
		default:
			if s.tile != nil {
				return fmt.Errorf("dpe: layer %d kind mismatch", i)
			}
			s.layer = net.Layers[i]
		}
		return nil
	})
	// Also after a failure: a finish must read the bias of the layer its
	// stage now holds.
	linkStages(e.stages)
	if err != nil {
		return energy.Zero, err
	}
	cost := energy.Zero
	for _, c := range costs {
		cost = cost.Par(c)
	}
	e.net = net
	if hide {
		// Writes retire off the critical path; the visible latency is one
		// buffer swap. Energy is still paid in full.
		return energy.Cost{LatencyPS: energy.EDRAMAccessLatencyPS, EnergyPJ: cost.EnergyPJ}, nil
	}
	return cost, nil
}

// Infer runs one inference, returning the output vector and its cost: a
// batch of one. The inference claims the next noise sequence number, so
// noisy results depend only on (seed, inference index since Load) — not on
// batching or pool width.
func (e *Engine) Infer(in []float64) ([]float64, energy.Cost, error) {
	outs, cost, err := e.inferBatch(obs.Ctx{}, [][]float64{in}, nil)
	if err != nil {
		return nil, energy.Zero, err
	}
	return outs[0], cost, nil
}

// price is the stage's per-item cost: what runStage charges every item of
// a batch and what PredictBatchCost folds, a pure function of the programmed
// network and the configuration. A dense stage is one tile read plus its
// bias adds, which ride the shift-add hardware; a conv stage streams its
// im2col patches through ConvReplicas copies of the filter tile, so latency
// covers ceil(patches/replicas) waves and energy every patch; activation and
// pooling stages run on the digital micro-units.
func (e *Engine) price(s *stage) energy.Cost {
	switch {
	case s.dense != nil:
		return s.tile.Cost().Seq(energy.Cost{EnergyPJ: float64(s.dense.OutSize()) * energy.ShiftAddEnergyPJ})
	case s.conv != nil:
		patch := s.tile.Cost()
		patches := s.conv.OutH() * s.conv.OutW()
		waves := (patches + e.cfg.ConvReplicas - 1) / e.cfg.ConvReplicas
		return energy.Cost{
			LatencyPS: patch.LatencyPS * int64(waves),
			EnergyPJ:  patch.EnergyPJ * float64(patches),
		}
	default:
		return energy.Digital(s.layer.InSize())
	}
}

// PredictBatchCost prices a batch of n items without running it: it is the
// cost InferBatch (keyed or not, traced or not) returns for n items, exactly.
// Stages are physically distinct (each layer owns its arrays), so once the
// pipeline fills, one result retires per bottleneck-stage interval: latency
// is fill + (n-1) x bottleneck, far better than n x single-inference
// latency. Energy is n x per-inference energy. This is the ISAAC-style
// throughput mode behind the Section VI claims. Like inference, it must not
// race a Load or Reprogram of this engine.
func (e *Engine) PredictBatchCost(n int) energy.Cost {
	fill := energy.Zero
	var bottleneck int64
	for i := range e.stages {
		c := e.price(&e.stages[i])
		fill = fill.Seq(c)
		bottleneck = max(bottleneck, c.LatencyPS)
	}
	return energy.Cost{
		LatencyPS: fill.LatencyPS + int64(n-1)*bottleneck,
		EnergyPJ:  fill.EnergyPJ * float64(n),
	}
}

// InferBatch runs a batch through the engine's stage pipeline and charges
// PredictBatchCost(len(inputs)).
//
// The simulator runs the batch stage-major: every item advances through a
// stage together, and dense (and conv, per patch position) stages hand
// the tile the whole item panel in one batched GEMM call, streaming each
// weight panel once per batch instead of once per item. Analog read noise
// stays per item: the batch claims a contiguous run of noise sequence
// numbers up front, and item i draws from the counter-based stream for
// number seq0+i regardless of batching — so noisy outputs match the same
// inputs run through Infer one at a time, and the outputs and returned
// cost are bit-identical at any batch size and worker-pool width.
func (e *Engine) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return e.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx is InferBatch with tracing: a "dpe.infer_batch" span
// (annotated with the batch size) with one per-stage child ("dpe.dense" /
// "dpe.conv" / "dpe.digital") carrying that stage's serial-equivalent
// cost (per-item × batch) and wrapping the tile.mvm_batch spans beneath
// it. The batch span's cost is the pipelined batch cost — fill +
// (n-1)×bottleneck — which is deliberately *less* than the sum of its
// children's serial costs; attribution reports both, and the self column
// clamps at zero.
func (e *Engine) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	sp := pc.Child("dpe.infer_batch")
	outs, cost, err := e.inferBatch(sp, inputs, nil)
	if sp.Active() {
		sp.Annotate("batch", float64(len(inputs)))
	}
	sp.End(cost)
	return outs, cost, err
}

// InferBatchKeyed is InferBatch with caller-owned noise sequence numbers:
// item i draws its analog read noise from the stream for seqs[i] instead of
// claiming the engine's internal inference counter. This is the fleet
// determinism primitive (docs/CLUSTER.md): because the noise stream is a
// pure function of (Config.Seed, sequence number, stage, position), any
// engine built from the same Config produces bit-identical output for the
// same (seq, input) pair — regardless of which engine serves it, how
// requests are batched, or the worker-pool width. The engine's own
// inference counter is untouched; the caller owns the key space (the fleet
// router stamps each request with its global arrival index).
func (e *Engine) InferBatchKeyed(seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	return e.InferBatchKeyedCtx(obs.Ctx{}, seqs, inputs)
}

// InferBatchKeyedCtx is InferBatchKeyed with tracing: the same
// "dpe.infer_batch" span tree as InferBatchCtx, annotated keyed=1.
func (e *Engine) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if len(seqs) != len(inputs) {
		return nil, energy.Zero, fmt.Errorf("dpe: %d noise keys for %d inputs", len(seqs), len(inputs))
	}
	sp := pc.Child("dpe.infer_batch")
	outs, cost, err := e.inferBatch(sp, inputs, seqs)
	if sp.Active() {
		sp.Annotate("batch", float64(len(inputs)))
		sp.Annotate("keyed", 1)
	}
	sp.End(cost)
	return outs, cost, err
}

// inferBatch runs the batch stage-major: every item advances through
// stage s together, so dense (and conv, per patch position) stages hand
// the tile the whole item panel in one MVMBatchIntoCtx call — the GEMM path
// that streams each weight panel once per batch instead of once per item.
// With seqs == nil, items claim a contiguous run of the engine's
// inference counter (seq0+i); with seqs != nil, item i uses the
// caller-supplied key seqs[i] and the counter does not advance. Either
// way item i's stage-s draws come from src.Derive(key_i).Derive(s), so
// item i's output does not depend on the batch it rides in.
//
// A stage reads the panel the stage before it left and writes a new one
// (dense, conv, pooling, and an activation that comes first: the caller's
// inputs are never written) or works in place on it (every other activation).
// Panels come from the engine's pool and go back once the next is written;
// the last one written is allocated for this batch, since the stages after
// it are in place and the caller keeps what they leave there.
func (e *Engine) inferBatch(sp obs.Ctx, inputs [][]float64, seqs []uint64) ([][]float64, energy.Cost, error) {
	if e.net == nil {
		return nil, energy.Zero, fmt.Errorf("dpe: inference before Load")
	}
	if len(inputs) == 0 {
		return nil, energy.Zero, fmt.Errorf("dpe: empty batch")
	}
	for i, in := range inputs {
		if len(in) != e.net.InSize() {
			return nil, energy.Zero, fmt.Errorf("dpe: input %d length %d != %d", i, len(in), e.net.InSize())
		}
	}

	n := len(inputs)
	var seq0 uint64
	if seqs == nil {
		seq0 = e.seq.Add(uint64(n)) - uint64(n)
	}
	perInf := make([]noise.Source, n)
	for i := range perInf {
		key := seq0 + uint64(i)
		if seqs != nil {
			key = seqs[i]
		}
		perInf[i] = e.src.Derive(key)
	}

	lastWritten := 0
	for s := range e.stages {
		if !e.stages[s].inPlace(s) {
			lastWritten = s
		}
	}
	vs := inputs
	var held *panel // the pooled panel vs is, once a stage has written one
	nss := make([]noise.Source, n)
	for s := range e.stages {
		st := &e.stages[s]
		for i := range nss {
			nss[i] = perInf[i].Derive(uint64(s))
		}
		var out *panel
		outs := vs
		if !st.inPlace(s) {
			out = e.getPanel(n, st.layer.OutSize(), s == lastWritten)
			outs = out.rows
		}
		if err := e.runStage(sp, st, outs, vs, nss); err != nil {
			return nil, energy.Zero, fmt.Errorf("dpe: stage %d (%s): %w", s, st.layer.Name(), err)
		}
		if out != nil {
			if held != nil {
				e.panels.Put(held)
			}
			held, vs = out, outs
		}
	}
	return vs, e.PredictBatchCost(n), nil
}

// inPlace reports whether the stage, at index i, works on the panel it is
// handed: an activation does, unless it comes first and would be writing the
// caller's inputs.
func (s *stage) inPlace(i int) bool { return s.act != nil && i > 0 }

// runStage executes one stage for the whole batch, reading ins and leaving
// its results in outs — the same panel for a stage that works in place.
// nss[i] is item i's derived stage stream
// (src.Derive(key_i).Derive(stageIndex)); conv stages derive one child per
// im2col patch, and tiles derive one grandchild per block, so every analog
// draw in the engine has a unique position-keyed counter. pc is the
// enclosing inference span; each stage opens one child under it for the
// batch, carrying the serial-equivalent cost (the stage's price × batch).
func (e *Engine) runStage(pc obs.Ctx, s *stage, outs, ins [][]float64, nss []noise.Source) error {
	n := len(ins)
	switch {
	case s.dense != nil:
		sp := pc.Child("dpe.dense")
		if _, err := s.tile.MVMBatchIntoCtx(sp, outs, ins, nss, s.finish); err != nil {
			sp.End(energy.Zero)
			return err
		}
		sp.End(e.price(s).Scale(int64(n)))
		return nil
	case s.conv != nil:
		sp := pc.Child("dpe.conv")
		err := e.runConv(sp, s, outs, ins, nss)
		if err != nil {
			sp.End(energy.Zero)
			return err
		}
		if sp.Active() {
			sp.Annotate("patches", float64(s.conv.OutH()*s.conv.OutW()))
			sp.Annotate("batch", float64(n))
		}
		sp.End(e.price(s).Scale(int64(n)))
		return nil
	default:
		// Activation and pooling stages run on digital micro-units.
		sp := pc.Child("dpe.digital")
		for i, in := range ins {
			switch {
			case s.fused:
			case s.act != nil:
				copy(outs[i], in) // a no-op in place
				s.act.Kind().Apply(outs[i])
			default:
				out, err := s.layer.Forward(in)
				if err != nil {
					sp.End(energy.Zero)
					return err
				}
				copy(outs[i], out)
			}
		}
		sp.End(e.price(s).Scale(int64(n)))
		return nil
	}
}

// runConv streams im2col patches through the filter crossbar for the
// whole batch, one batched tile MVM per patch position: the filter panel
// is streamed once per batch per position instead of once per item. Patch
// (oy, ox) of item i draws noise from nss[i].Derive(oy*outW+ox),
// independent of streaming order. The stage's price covers the replicas.
func (e *Engine) runConv(pc obs.Ctx, s *stage, outs, ins [][]float64, nss []noise.Source) error {
	l := s.conv
	oh, ow := l.OutH(), l.OutW()
	n := len(ins)
	patchIns := make([][]float64, n)
	patchNss := make([]noise.Source, n)
	ys := e.getPanel(n, l.F, false)
	defer e.panels.Put(ys)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			p := oy*ow + ox
			for i := range ins {
				patch, err := l.Patch(ins[i], oy, ox)
				if err != nil {
					return err
				}
				patchIns[i] = patch
				patchNss[i] = nss[i].Derive(uint64(p))
			}
			if _, err := s.tile.MVMBatchIntoCtx(pc, ys.rows, patchIns, patchNss, nil); err != nil {
				return err
			}
			for i := range ins {
				for f := 0; f < l.F; f++ {
					outs[i][p*l.F+f] = ys.rows[i][f] + l.B[f]
				}
			}
		}
	}
	return nil
}

// EffectiveWeightBandwidth returns the rate at which an inference "touches"
// weight bytes without moving them, in bytes/s: the Section VI bandwidth
// metric. A Von Neumann machine must physically stream the same bytes
// through its memory interface.
func (e *Engine) EffectiveWeightBandwidth(inferCost energy.Cost) float64 {
	if inferCost.LatencyPS == 0 {
		return 0
	}
	return e.WeightBytes() / inferCost.Latency()
}
