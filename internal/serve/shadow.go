// Shadow-engine reprogramming: zero-downtime, health-gated weight updates.
//
// Section VI names memristor write asymmetry — writes are orders of
// magnitude slower than reads — as the scaling challenge, and proposes
// hiding it behind ongoing computation. ShadowPair is that model: two
// engines, one live and one standby; weight updates program the standby
// with Load at full write cost while the live engine keeps serving every
// request, then an atomic pointer swap puts the new weights on the serving
// path. The only reprogramming cost a request can ever observe is the swap
// itself, priced by energy.HiddenWrite.
//
// The fault subsystem (internal/faultinject, docs/FAULTS.md) makes that
// write path fallible: program-and-verify can exhaust retry budgets, spare
// columns can run out. So the pair is also the board's health gate:
//
//   - A standby that stays unhealthy after one in-place repair is never
//     swapped in.
//   - A failed attempt is retried at once. Each retry re-runs Load on a
//     fresh program epoch, which re-rolls transient write failures: the
//     fault model draws them per program pass, not per unit of wall time,
//     so waiting between attempts would change nothing. Reprograms are
//     serialized per pair (and per fleet), so there is no retry storm to
//     spread out either.
//   - When every attempt fails, the pair trips: the live engine keeps its
//     previous weights, but every batch sheds with a typed ErrUnhealthy
//     instead of serving from a board the fault model could not
//     reprogram. A later successful Reprogram closes it again.
//
// The Server's flush loop recognizes ErrUnhealthy and sheds whole batches
// without the per-request fallback — retrying one request at a time
// against a tripped board is pure waste.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
)

// ErrUnhealthy is the typed sentinel for health-driven load shedding: a
// tripped ShadowPair returns it from InferBatch, and a Reprogram whose
// standby stays unhealthy after repair wraps it. Callers match it with
// errors.Is; the Server's flusher sheds whole batches on it.
var ErrUnhealthy = errors.New("serve: backend unhealthy")

// guardedEngine pairs an engine with a reader/writer gate: inference holds
// the read side, reprogramming holds the write side. The write side is
// only ever taken on the standby engine, so the live path never blocks on
// a writer — the gate exists to keep a *returning* standby (an engine that
// was live moments ago and may still have in-flight batches) from being
// programmed under a running inference.
type guardedEngine struct {
	mu  sync.RWMutex
	eng *dpe.Engine
}

// pairMetrics holds the pair's interned health-gate counters.
type pairMetrics struct {
	shed    *metrics.Counter
	trips   *metrics.Counter
	retries *metrics.Counter
}

// ShadowPair is one board of the serving tier: a double-buffered pair of
// DPE engines behind a health gate, implementing Backend. Inference always
// runs on the live engine; Reprogram programs the standby and swaps. Both
// engines share one configuration and seed, so the engine installed by a
// swap is bit-identical — outputs, noise stream, and costs — to a fresh
// engine programmed with the new network. Construct with NewShadowPair;
// InferBatch is safe for concurrent use and may run concurrently with
// Reprogram.
type ShadowPair struct {
	cfg Config
	met pairMetrics

	// reprogramMu serializes swap attempts; swaps are rare and total
	// ordering keeps the live/standby invariant trivial.
	reprogramMu sync.Mutex
	live        atomic.Pointer[guardedEngine]
	standby     *guardedEngine

	swaps   atomic.Int64
	tripped atomic.Bool
}

// NewShadowPair builds the pair and programs net into the live engine,
// returning the initial programming cost. The standby engine is created
// (same config and seed) but left unprogrammed until the first Reprogram.
// The pair is configured by Default() refined with opts: it reads the
// retry budget (WithRetry) and the Registry its health counters land in.
func NewShadowPair(cfg dpe.Config, net *nn.Network, opts ...Option) (*ShadowPair, energy.Cost, error) {
	scfg := build(opts)
	if err := scfg.Validate(); err != nil {
		return nil, energy.Zero, err
	}
	reg := scfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	liveEng, err := dpe.New(cfg)
	if err != nil {
		return nil, energy.Zero, err
	}
	standbyEng, err := dpe.New(cfg)
	if err != nil {
		return nil, energy.Zero, err
	}
	cost, err := liveEng.Load(net)
	if err != nil {
		return nil, energy.Zero, fmt.Errorf("serve: shadow pair initial load: %w", err)
	}
	p := &ShadowPair{
		cfg: scfg,
		met: pairMetrics{
			shed:    reg.Counter("serve.breaker_shed"),
			trips:   reg.Counter("serve.breaker_trips"),
			retries: reg.Counter("serve.reprogram_retries"),
		},
		standby: &guardedEngine{eng: standbyEng},
	}
	p.live.Store(&guardedEngine{eng: liveEng})
	return p, cost, nil
}

// Swaps returns how many reprogram-and-swap cycles have completed.
func (p *ShadowPair) Swaps() int64 { return p.swaps.Load() }

// Tripped reports whether the pair is shedding because its last Reprogram
// failed every attempt.
func (p *ShadowPair) Tripped() bool { return p.tripped.Load() }

// shed refuses a batch of n while the pair is tripped, counting it in
// serve.breaker_shed; nil means serve it.
func (p *ShadowPair) shed(n int) error {
	if !p.tripped.Load() {
		return nil
	}
	p.met.shed.Add(int64(n))
	return fmt.Errorf("serve: breaker open: %w", ErrUnhealthy)
}

// InferBatch serves the batch from the live engine. It takes the engine's
// read gate for the duration, so a subsequent swap cannot reprogram this
// engine until the batch retires. Requests that race a swap may be served
// by either weight version — the swap is the linearization point. While
// the pair is tripped the whole batch sheds with ErrUnhealthy.
func (p *ShadowPair) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return p.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx is InferBatch with tracing: the live engine's
// dpe.infer_batch span tree links under pc. Shed batches record no spans.
func (p *ShadowPair) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if err := p.shed(len(inputs)); err != nil {
		return nil, energy.Zero, err
	}
	g := p.live.Load()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.eng.InferBatchCtx(pc, inputs)
}

// InferBatchKeyedCtx serves the batch from the live engine with
// caller-owned noise sequence numbers (dpe.Engine.InferBatchKeyed). Because
// both engines of the pair share one Config and seed, keyed outputs are
// bit-identical across swaps — and across every other pair built from the
// same Config, which is what lets a fleet of pairs fan requests out without
// disturbing per-request determinism (docs/CLUSTER.md). It sheds exactly as
// InferBatchCtx does.
func (p *ShadowPair) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if err := p.shed(len(inputs)); err != nil {
		return nil, energy.Zero, err
	}
	g := p.live.Load()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.eng.InferBatchKeyedCtx(pc, seqs, inputs)
}

// PredictBatchCost is the live engine's dpe.Engine.PredictBatchCost, read
// under its gate: the exact cost the pair charges a batch of n on the
// weights it serves now (the hybrid dispatcher's crossbar price).
func (p *ShadowPair) PredictBatchCost(n int) energy.Cost {
	g := p.live.Load()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.eng.PredictBatchCost(n)
}

// Wear returns the live engine's lifetime cell-write count, read under its
// gate so the count cannot race a reprogram of a just-retired standby. The
// fleet router's wear-aware policy polls this between batches.
func (p *ShadowPair) Wear() int64 {
	g := p.live.Load()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.eng.Wear()
}

// Health scans the engine currently on the serving path, holding its read
// gate so the scan cannot race a reprogram of a just-retired standby. This
// is the safe form for liveness endpoints (cimserve -listen /healthz):
// a scan without the gate could observe a tile mid-program.
func (p *ShadowPair) Health() dpe.Health {
	g := p.live.Load()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.eng.HealthCheck()
}

// Reprogram programs net into the standby engine at full write cost while
// the live engine keeps serving, then atomically swaps the pair. It
// returns the visible cost (one buffer-swap latency on the critical path,
// but the full programming energy — energy is spent regardless of where
// the latency hides) and the hidden cost (the full programming cost that
// overlapped with serving, summed over every attempt: failed programming
// passes burn real energy, and the ledger shows it).
//
// The standby is programmed with Load, so the swapped-in engine is
// indistinguishable from a freshly constructed engine loaded with net —
// its noise sequence restarts at zero — and the new network may have a
// different topology than the old one.
//
// When device-fault injection is active (dpe.Config.Faults), each attempt
// is health-aware: if program-and-verify left the standby with lost
// columns, it runs one Repair pass in place — still off the critical path —
// before swapping, and a standby that remains unhealthy after repair is
// never swapped in. A failed attempt is retried at once, up to MaxRetries
// times. If every attempt fails the pair trips and the last error
// is returned (wrapping ErrUnhealthy when the standby stayed unhealthy);
// the live engine keeps the previous weights. A success closes the pair.
func (p *ShadowPair) Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error) {
	budget := p.cfg.MaxRetries + 1
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			p.met.retries.Inc()
		}
		var v, h energy.Cost
		v, h, err = p.swap(net)
		hidden = hidden.Seq(h)
		if err == nil {
			visible = v
			break
		}
	}
	if err != nil {
		if !p.tripped.Swap(true) {
			p.met.trips.Inc()
		}
		err = fmt.Errorf("serve: reprogram failed after %d attempts: %w", budget, err)
	} else {
		p.tripped.Store(false)
	}
	return visible, hidden, err
}

// swap is one reprogram attempt: program the standby, repair it if needed,
// and swap it in if it is healthy. It returns the visible cost and the
// attempt's hidden cost, where the simulated energy went.
func (p *ShadowPair) swap(net *nn.Network) (visible, hidden energy.Cost, err error) {
	p.reprogramMu.Lock()
	defer p.reprogramMu.Unlock()

	sb := p.standby
	// Wait out any batch still running on the standby from before the
	// previous swap, then program it. The live engine serves throughout.
	sb.mu.Lock()
	cost, err := sb.eng.Load(net)
	if err != nil {
		sb.mu.Unlock()
		return energy.Zero, energy.Zero, fmt.Errorf("serve: shadow reprogram: %w", err)
	}
	// Repair-before-swap: transient write failures re-roll on the repair
	// epoch and usually clear; stuck-cell losses past the spare budget do
	// not, and block the swap.
	if h := sb.eng.HealthCheck(); !h.Healthy() {
		rcost, h2, rerr := sb.eng.Repair()
		cost = cost.Seq(rcost)
		if rerr == nil && !h2.Healthy() {
			rerr = fmt.Errorf("serve: standby unhealthy after repair (%s): %w", h2, ErrUnhealthy)
		}
		if rerr != nil {
			sb.mu.Unlock()
			return energy.Zero, cost, rerr
		}
	}
	sb.mu.Unlock()

	// Atomic swap: requests that load the pointer after this line run on
	// the new weights. The old live engine becomes the next standby.
	old := p.live.Swap(sb)
	p.standby = old
	p.swaps.Add(1)

	return energy.HiddenWrite(cost), cost, nil
}
