// Package hybrid is the runtime form of the paper's Section III.F, "CIM as
// an accelerator inside a Von Neumann host": Dispatcher sits between the
// serving pipeline and its two backends and routes every micro-batch flush
// to the crossbar engine or to the executing Von Neumann twin, by a static
// cost model seeded from the board constants and refined per batch-size
// bucket by an online EWMA calibrator (docs/HYBRID.md).
package hybrid

import (
	"fmt"
	"sync/atomic"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
	"cimrev/internal/vonneumann"
)

// Mode selects the dispatch policy.
type Mode int

const (
	// ModeCIM routes every flush to the crossbar backend — the pre-hybrid
	// behavior, and the default.
	ModeCIM Mode = iota
	// ModeVN routes every flush to the Von Neumann twin. It requires a
	// twin, which in turn requires a deterministic (noise-free) config.
	ModeVN
	// ModeAuto routes each flush by the cost model: a twin-less (noisy or
	// faulty) deployment pins everything to CIM; with a twin every flush,
	// keyed or not, follows the calibrated crossover.
	ModeAuto
)

// String names the mode as the -dispatch flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeCIM:
		return "cim"
	case ModeVN:
		return "vn"
	case ModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a -dispatch flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cim":
		return ModeCIM, nil
	case "vn":
		return ModeVN, nil
	case "auto":
		return ModeAuto, nil
	default:
		return 0, fmt.Errorf("hybrid: unknown dispatch mode %q (want cim, vn, or auto)", s)
	}
}

// CIMBackend is the crossbar side of the dispatcher: the batch-inference
// surface shared by dpe.Engine, serve.ShadowPair, and serve.Breaker.
type CIMBackend interface {
	InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error)
	InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error)
	InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error)
}

// Reprogrammer is the weight-update surface of serve.ShadowPair and
// serve.Breaker. A CIMBackend that also implements it gets dispatcher-
// coordinated reprograms: Dispatcher.Reprogram suspends Von Neumann
// routing, swaps the crossbar side, reloads the twin, and resumes.
type Reprogrammer interface {
	Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error)
}

// Dispatcher routes inference flushes between a crossbar backend and its
// executing Von Neumann twin. Because the twin is bit-exact on
// deterministic configs (vonneumann.Backend's contract), routing is
// invisible in the outputs — only the simulated cost changes — so the
// dispatcher is free to chase the cheaper backend per flush.
//
// Routing rules, in order (useVN is the one place they live):
//
//   - Forced modes (cim, vn) always use their backend, except that vn
//     falls back to CIM while a reprogram is in flight (the twin is
//     mid-swap and must not serve stale weights).
//   - Twin-less dispatchers pin everything to CIM in auto mode, counted
//     under dispatch.pinned_noisy. vonneumann.NewBackend rejects
//     ReadNoise > 0 and callers build no twin for a faulty deployment, so
//     a twin exists only where noise keys draw nothing: "has a twin" is
//     the whole pin rule, and keyed traffic needs no rule of its own.
//   - Everything else follows the calibrator: a static crossover model
//     seeded from the shared CIM board constants and the twin's exact
//     roofline prior, refined per batch-size class by an EWMA over
//     observed flush costs.
//
// A Dispatcher is a serve.Backend (plus the ctx and keyed extensions), so
// it slots between a Breaker and a serve.Server unchanged. The three entry
// points are one body: InferBatch and InferBatchCtx are InferBatchKeyedCtx
// with nil keys, which the crossbar side serves from its own counter.
type Dispatcher struct {
	cim  CIMBackend
	vn   *vonneumann.Backend
	rep  Reprogrammer
	mode Mode
	cal  *calibrator

	// suspended parks Von Neumann routing while a reprogram swaps both
	// backends; flushes fall back to CIM (the pair serves throughout).
	suspended atomic.Bool

	cntCIM    *metrics.Counter
	cntVN     *metrics.Counter
	cntPinned *metrics.Counter
}

// config collects dispatcher options.
type dispatcherConfig struct {
	mode Mode
	reg  *metrics.Registry
}

// Option configures a Dispatcher.
type Option func(*dispatcherConfig)

// WithMode sets the dispatch policy (default ModeCIM).
func WithMode(m Mode) Option { return func(c *dispatcherConfig) { c.mode = m } }

// WithRegistry records dispatch.cim, dispatch.vn, and dispatch.pinned_noisy
// request counters into reg — pass the serving registry so routing shows
// up next to the serve.* series on /metrics.
func WithRegistry(reg *metrics.Registry) Option { return func(c *dispatcherConfig) { c.reg = reg } }

// New builds a dispatcher over a crossbar backend and an optional Von
// Neumann twin. A nil twin is legal except in ModeVN: it means the
// deployment has no digital twin (noisy or faulty config), and auto mode
// pins all its traffic to CIM. A non-nil twin must be exact for cim — same
// network, noise-free and fault-free config — because any mode may then
// serve any flush from it. If cim also implements Reprogrammer,
// Dispatcher.Reprogram coordinates weight swaps across both backends.
func New(cim CIMBackend, vn *vonneumann.Backend, opts ...Option) (*Dispatcher, error) {
	if cim == nil {
		return nil, fmt.Errorf("hybrid: nil CIM backend")
	}
	cfg := dispatcherConfig{mode: ModeCIM}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.mode == ModeVN && vn == nil {
		return nil, fmt.Errorf("hybrid: mode vn requires a Von Neumann twin (deterministic config)")
	}
	if cfg.reg == nil {
		cfg.reg = metrics.NewRegistry()
	}
	d := &Dispatcher{
		cim:       cim,
		vn:        vn,
		mode:      cfg.mode,
		cntCIM:    cfg.reg.Counter("dispatch.cim"),
		cntVN:     cfg.reg.Counter("dispatch.vn"),
		cntPinned: cfg.reg.Counter("dispatch.pinned_noisy"),
	}
	d.rep, _ = cim.(Reprogrammer)
	if vn != nil {
		d.cal = newCalibrator(cimSeed(vn.Network()), func(n int) float64 {
			return float64(vn.PredictBatchCost(n).LatencyPS) / float64(n)
		})
	}
	return d, nil
}

// Mode returns the dispatch policy.
func (d *Dispatcher) Mode() Mode { return d.mode }

// Counts returns the routed-request totals: CIM-routed, VN-routed, and
// CIM-pinned (auto-mode traffic on a twin-less dispatcher).
func (d *Dispatcher) Counts() (cim, vn, pinned int64) {
	return d.cntCIM.Value(), d.cntVN.Value(), d.cntPinned.Value()
}

// InferBatch routes one flush without noise keys.
func (d *Dispatcher) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return d.InferBatchKeyedCtx(obs.Ctx{}, nil, inputs)
}

// InferBatchCtx is InferBatch under a trace span context.
func (d *Dispatcher) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	return d.InferBatchKeyedCtx(pc, nil, inputs)
}

// useVN chooses the backend for one flush of n items and counts it under
// that choice — the dispatcher's only routing decision.
func (d *Dispatcher) useVN(n int) bool {
	vn, cnt := false, d.cntCIM
	switch {
	case d.mode == ModeAuto && d.vn == nil:
		cnt = d.cntPinned
	case d.mode == ModeCIM || d.suspended.Load():
		// Forced, or a reprogram is swapping both backends: the crossbar.
	case d.mode == ModeVN || d.cal.choose(n):
		vn, cnt = true, d.cntVN
	}
	cnt.Add(int64(n))
	return vn
}

// InferBatchKeyedCtx routes one flush. seqs are the items' noise keys, nil
// for a flush without keys. The twin is served keyless either way, which is
// exact because a twin only exists for deterministic configs, where keys
// consume no noise draws; the crossbar side gets the keys when there are
// any.
func (d *Dispatcher) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) (outs [][]float64, cost energy.Cost, err error) {
	n := len(inputs)
	vn := d.useVN(n)
	switch {
	case vn:
		outs, cost, err = d.vn.InferBatchCtx(pc, inputs)
	case seqs == nil:
		outs, cost, err = d.cim.InferBatchCtx(pc, inputs)
	default:
		outs, cost, err = d.cim.InferBatchKeyedCtx(pc, seqs, inputs)
	}
	if err == nil && d.cal != nil {
		d.cal.observe(n, vn, cost.LatencyPS)
	}
	return outs, cost, err
}

// Estimates reports the calibrator's current per-item latency estimates
// (in picoseconds) for batch size n, or ok=false on twin-less dispatchers.
func (d *Dispatcher) Estimates(n int) (cimPS, vnPS float64, ok bool) {
	if d.cal == nil {
		return 0, 0, false
	}
	cimPS, vnPS = d.cal.estimates(n)
	return cimPS, vnPS, true
}

// Reprogram swaps weights on both backends atomically with respect to
// routing: Von Neumann routing is suspended (flushes fall back to the CIM
// side, which the underlying pair keeps serving mid-swap), the wrapped
// Reprogrammer performs the crossbar swap, and on success the twin is
// reloaded from the same network before routing resumes. A twin reload
// failure is returned after the crossbar swap has already happened — the
// caller's view is the same as a Breaker reprogram failure mid-retry.
func (d *Dispatcher) Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error) {
	if d.rep == nil {
		return energy.Zero, energy.Zero, fmt.Errorf("hybrid: CIM backend does not support Reprogram")
	}
	d.suspended.Store(true)
	defer d.suspended.Store(false)
	visible, hidden, err = d.rep.Reprogram(net)
	if err != nil {
		return visible, hidden, err
	}
	if d.vn != nil {
		if rerr := d.vn.Reload(net); rerr != nil {
			return visible, hidden, fmt.Errorf("hybrid: twin reload after reprogram: %w", rerr)
		}
	}
	return visible, hidden, nil
}
