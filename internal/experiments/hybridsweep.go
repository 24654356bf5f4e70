package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/hybrid"
	"cimrev/internal/nn"
	"cimrev/internal/suitability"
	"cimrev/internal/vonneumann"
)

// mixedBatch is the flush size of the mixed-workload measurement: small
// enough that tiny models stay Von Neumann territory, big enough that the
// crossbar pipeline amortizes its read cycles on large models.
const mixedBatch = 4

// HybridCell is one (layer size, batch size) grid point of the crossover
// sweep: the measured per-item cost of serving an MLP flush on the
// crossbar engine versus the executing Von Neumann twin.
type HybridCell struct {
	// Size is the MLP width ([size, size, size]); Batch the flush size.
	Size  int
	Batch int
	// FlopsPerByte is the operational intensity of the flush's Von
	// Neumann GEMM (weights + vectors) — the sweep's third axis, the Fig 2
	// quantity that decides which side of the roofline the digital backend
	// lands on.
	FlopsPerByte float64
	// CIMPerItemNS / VNPerItemNS are the measured simulated per-item
	// latencies: the dpe engine's charged batch cost and the twin's
	// roofline-priced batch cost, divided by the batch.
	CIMPerItemNS float64
	VNPerItemNS  float64
	// SpeedupCIM is VN/CIM per-item latency: above 1 the crossbar wins the
	// cell, below 1 the Von Neumann backend does.
	SpeedupCIM float64
	// Rating grades SpeedupCIM on the suitability calculator's scale.
	Rating suitability.Rating
}

// HybridMixed is one dispatch mode's result over the mixed workload: the
// same request stream — every model class in the grid, flush after flush —
// served entirely by the crossbar (cim), entirely by the twin (vn), or
// routed per flush by the calibrated dispatcher (auto).
type HybridMixed struct {
	Mode     string
	Requests int
	// SimThroughputRPS is requests over the summed simulated latency of
	// every flush — a single serving queue draining the mixed stream.
	SimThroughputRPS float64
	// Routing breakdown from the dispatchers' counters.
	CIMRouted int64
	VNRouted  int64
	Pinned    int64
}

// HybridResult is the cost-model-driven dispatch evaluation: the measured
// CIM-vs-CPU crossover grid plus the mixed-workload comparison that the
// hybrid dispatcher must win (auto at least as fast as the best single
// backend). Everything is simulated cost, so the result is bit-identical
// at any worker-pool width.
type HybridResult struct {
	Cells []HybridCell
	Mixed []HybridMixed
	// AutoSpeedupVsBest is auto throughput over the best single-backend
	// throughput: the acceptance number, >= 1 when dispatch pays for
	// itself.
	AutoSpeedupVsBest float64
}

// HybridSweep measures the crossover grid (sizes x batches) and then runs
// the mixed workload — flushes of mixedBatch requests against every model
// class — under all three dispatch modes. flushes is the per-class flush
// count for the mixed phase.
func HybridSweep(sizes, batches []int, flushes int) (*HybridResult, error) {
	if len(sizes) == 0 || len(batches) == 0 {
		return nil, fmt.Errorf("experiments: empty hybrid sweep")
	}
	if flushes < 1 {
		return nil, fmt.Errorf("experiments: hybrid sweep needs flushes >= 1, got %d", flushes)
	}
	cfg := dpe.DefaultConfig()
	res := &HybridResult{}

	nets := make([]*nn.Network, len(sizes))
	for i, size := range sizes {
		rng := rand.New(rand.NewSource(int64(7000 + size)))
		net, err := nn.NewMLP(fmt.Sprintf("hybrid-%d", size), []int{size, size, size}, rng)
		if err != nil {
			return nil, err
		}
		nets[i] = net

		eng, err := dpe.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Load(net); err != nil {
			return nil, err
		}
		twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
		if err != nil {
			return nil, err
		}
		for _, batch := range batches {
			if batch < 1 {
				return nil, fmt.Errorf("experiments: hybrid sweep batch must be >= 1, got %d", batch)
			}
			ins := hybridInputs(batch, size, int64(size*1000+batch))
			_, cimCost, err := eng.InferBatch(ins)
			if err != nil {
				return nil, err
			}
			vnCost := twin.PredictBatchCost(batch)
			cell := HybridCell{
				Size:         size,
				Batch:        batch,
				FlopsPerByte: hybridIntensity(net, batch),
				CIMPerItemNS: float64(cimCost.LatencyPS) / float64(batch) / 1e3,
				VNPerItemNS:  float64(vnCost.LatencyPS) / float64(batch) / 1e3,
			}
			if cell.CIMPerItemNS > 0 {
				cell.SpeedupCIM = cell.VNPerItemNS / cell.CIMPerItemNS
			}
			cell.Rating = suitability.RatingFor(cell.SpeedupCIM)
			res.Cells = append(res.Cells, cell)
		}
	}

	for _, mode := range []hybrid.Mode{hybrid.ModeCIM, hybrid.ModeVN, hybrid.ModeAuto} {
		m, err := hybridMixed(cfg, mode, sizes, nets, flushes)
		if err != nil {
			return nil, err
		}
		res.Mixed = append(res.Mixed, *m)
	}
	best := 0.0
	for _, m := range res.Mixed[:2] {
		if m.SimThroughputRPS > best {
			best = m.SimThroughputRPS
		}
	}
	if best > 0 {
		res.AutoSpeedupVsBest = res.Mixed[2].SimThroughputRPS / best
	}
	return res, nil
}

// hybridMixed serves the whole model-class mix through one dispatch mode:
// per class a fresh engine+twin+dispatcher, flushes of mixedBatch items
// each, costs summed as one serving queue draining sequentially.
func hybridMixed(cfg dpe.Config, mode hybrid.Mode, sizes []int, nets []*nn.Network, flushes int) (*HybridMixed, error) {
	m := &HybridMixed{Mode: mode.String()}
	var totalPS int64
	for i, net := range nets {
		eng, err := dpe.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Load(net); err != nil {
			return nil, err
		}
		twin, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
		if err != nil {
			return nil, err
		}
		disp, err := hybrid.New(eng, twin, hybrid.WithMode(mode))
		if err != nil {
			return nil, err
		}
		for f := 0; f < flushes; f++ {
			ins := hybridInputs(mixedBatch, sizes[i], int64(9000+sizes[i]*100+f))
			_, cost, err := disp.InferBatch(ins)
			if err != nil {
				return nil, err
			}
			totalPS += cost.LatencyPS
			m.Requests += mixedBatch
		}
		cim, vn, pinned := disp.Counts()
		m.CIMRouted += cim
		m.VNRouted += vn
		m.Pinned += pinned
	}
	if totalPS > 0 {
		m.SimThroughputRPS = float64(m.Requests) / (float64(totalPS) * 1e-12)
	}
	return m, nil
}

// hybridInputs builds a deterministic batch of inputs in [-1, 1).
func hybridInputs(n, size int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ins := make([][]float64, n)
	for i := range ins {
		in := make([]float64, size)
		for j := range in {
			in[j] = rng.Float64()*2 - 1
		}
		ins[i] = in
	}
	return ins
}

// hybridIntensity is the operational intensity (flops/byte) of serving one
// flush of n items through the network's dense stages on a Von Neumann
// machine: the GEMM flops over the weight panel plus per-item vector
// traffic in int32.
func hybridIntensity(net *nn.Network, n int) float64 {
	var flops, bytes float64
	for _, l := range net.Layers {
		d, ok := l.(*nn.Dense)
		if !ok {
			continue
		}
		flops += 2 * float64(n) * float64(d.InSize()) * float64(d.OutSize())
		bytes += 4 * float64(d.InSize()) * float64(d.OutSize())
		bytes += float64(n) * 4 * float64(d.InSize()+d.OutSize())
	}
	if bytes == 0 {
		return 0
	}
	return flops / bytes
}

// Check is the hybrid-dispatch acceptance gate; cimbench runs it after
// writing the sweep. The crossover must be measured, not asserted — at
// least one cell on each side of SpeedupCIM == 1, or the dispatch decision
// is degenerate and the sweep proves nothing — and auto dispatch must pay
// for itself: all three modes served the mixed workload and auto's
// throughput at least matches the best single backend's (a tie passes).
func (r *HybridResult) Check() error {
	var below, above int
	for _, c := range r.Cells {
		if c.SpeedupCIM < 1 {
			below++
		}
		if c.SpeedupCIM > 1 {
			above++
		}
	}
	if below == 0 || above == 0 {
		return fmt.Errorf("hybrid gate: no measured crossover (%d cells favor VN, %d favor CIM; need both)", below, above)
	}
	rps := map[string]float64{}
	for _, m := range r.Mixed {
		rps[m.Mode] = m.SimThroughputRPS
	}
	for _, mode := range []string{"cim", "vn", "auto"} {
		if _, ok := rps[mode]; !ok {
			return fmt.Errorf("hybrid gate: no mixed-workload row for dispatch mode %q", mode)
		}
	}
	if best := math.Max(rps["cim"], rps["vn"]); rps["auto"] < best {
		return fmt.Errorf("hybrid gate: auto dispatch %.0f req/s lost to best single backend %.0f req/s", rps["auto"], best)
	}
	return nil
}

// Format renders the crossover table and the mixed-workload comparison.
func (r *HybridResult) Format() string {
	var b strings.Builder
	b.WriteString("Hybrid dispatch — measured CIM-vs-CPU crossover (per-item simulated latency)\n")
	b.WriteString(fmt.Sprintf("%-6s %-6s %12s %14s %14s %10s %-7s\n",
		"size", "batch", "flops/byte", "cim ns/item", "vn ns/item", "cim gain", "rating"))
	for _, c := range r.Cells {
		b.WriteString(fmt.Sprintf("%-6d %-6d %12.1f %14.1f %14.1f %9.3fx %-7s\n",
			c.Size, c.Batch, c.FlopsPerByte, c.CIMPerItemNS, c.VNPerItemNS, c.SpeedupCIM, c.Rating))
	}
	b.WriteString(fmt.Sprintf("\nMixed workload (%d-item flushes, every model class) by dispatch mode\n", mixedBatch))
	b.WriteString(fmt.Sprintf("%-8s %10s %14s %10s %10s %10s\n",
		"dispatch", "requests", "sim req/s", "cim", "vn", "pinned"))
	for _, m := range r.Mixed {
		b.WriteString(fmt.Sprintf("%-8s %10d %14.0f %10d %10d %10d\n",
			m.Mode, m.Requests, m.SimThroughputRPS, m.CIMRouted, m.VNRouted, m.Pinned))
	}
	b.WriteString(fmt.Sprintf("\nauto vs best single backend: %.3fx\n", r.AutoSpeedupVsBest))
	return b.String()
}
