// Shadow-engine reprogramming: zero-downtime weight updates.
//
// Section VI names memristor write asymmetry — writes are orders of
// magnitude slower than reads — as the scaling challenge, and proposes
// hiding it behind ongoing computation. dpe.Engine.Reprogram(hide=true)
// models that claim as a cost-algebra identity (visible latency collapses
// to one buffer swap). ShadowPair *mechanizes* it: two engines, one live
// and one standby; weight updates program the standby at full write cost
// while the live engine keeps serving every request, then an atomic
// pointer swap puts the new weights on the serving path. The only
// reprogramming cost a request can ever observe is the swap itself.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/nn"
	"cimrev/internal/obs"
)

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

// ShadowPair is a double-buffered pair of DPE engines implementing
// Backend. Inference always runs on the live engine; Reprogram programs
// the standby and swaps. Both engines share one configuration and seed, so
// the engine installed by a swap is bit-identical — outputs, noise stream,
// and costs — to a fresh engine programmed with the new network.
type ShadowPair struct {
	cfg dpe.Config

	// reprogramMu serializes Reprogram calls; swaps are rare and total
	// ordering keeps the live/standby invariant trivial.
	reprogramMu sync.Mutex
	live        atomic.Pointer[guardedEngine]
	standby     *guardedEngine

	swaps atomic.Int64
}

// NewShadowPair builds the pair and programs net into the live engine,
// returning the initial programming cost. The standby engine is created
// (same config and seed) but left unprogrammed until the first Reprogram.
func NewShadowPair(cfg dpe.Config, net *nn.Network) (*ShadowPair, energy.Cost, error) {
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
	p := &ShadowPair{cfg: cfg, standby: &guardedEngine{eng: standbyEng}}
	p.live.Store(&guardedEngine{eng: liveEng})
	return p, cost, nil
}

// Swaps returns how many reprogram-and-swap cycles have completed.
func (p *ShadowPair) Swaps() int64 { return p.swaps.Load() }

// InferBatch serves the batch from the live engine. It takes the engine's
// read gate for the duration, so a subsequent swap cannot reprogram this
// engine until the batch retires. Requests that race a swap may be served
// by either weight version — the swap is the linearization point.
func (p *ShadowPair) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return p.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx is InferBatch with tracing: the live engine's
// dpe.infer_batch span tree links under pc.
func (p *ShadowPair) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
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
// disturbing per-request determinism (docs/CLUSTER.md).
func (p *ShadowPair) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	g := p.live.Load()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.eng.InferBatchKeyedCtx(pc, seqs, inputs)
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
// overlapped with serving).
//
// The standby is programmed with Load, not Reprogram: the swapped-in
// engine is indistinguishable from a freshly constructed engine loaded
// with net — its noise sequence restarts at zero — and the new network may
// even have a different topology than the old one.
//
// When device-fault injection is active (dpe.Config.Faults), Reprogram is
// health-aware: if program-and-verify left the standby with lost columns,
// it runs one Repair pass in place — still off the critical path, its
// cost part of the returned hidden cost — before swapping. A standby that
// remains unhealthy after repair is NEVER swapped in: Reprogram returns an
// error wrapping ErrUnhealthy, the live engine keeps serving the old
// weights, and the failed attempt's cost is still returned as hidden (the
// energy was spent even though no swap happened).
func (p *ShadowPair) Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error) {
	return p.ReprogramCtx(obs.Ctx{}, net)
}

// ReprogramCtx is Reprogram with tracing: one "serve.shadow_swap" span
// covering the standby programming, any repair pass, and the swap. The
// span's cost is the *hidden* (full) programming cost — the work that
// overlapped with serving — because that is where the simulated energy
// went; the visible swap latency is an annotation (visible_ps).
func (p *ShadowPair) ReprogramCtx(pc obs.Ctx, net *nn.Network) (visible, hidden energy.Cost, err error) {
	sp := pc.Child("serve.shadow_swap")
	visible, hidden, err = p.reprogram(sp, net)
	if sp.Active() {
		sp.Annotate("visible_ps", float64(visible.LatencyPS))
		if err != nil {
			sp.Annotate("error", 1)
		}
	}
	sp.End(hidden)
	return visible, hidden, err
}

func (p *ShadowPair) reprogram(sp obs.Ctx, net *nn.Network) (visible, hidden energy.Cost, err error) {
	p.reprogramMu.Lock()
	defer p.reprogramMu.Unlock()

	sb := p.standby
	// Wait out any batch still running on the standby from before the
	// previous swap, then program it. The live engine serves throughout.
	sb.mu.Lock()
	cost, err := sb.eng.LoadCtx(sp, net)
	if err != nil {
		sb.mu.Unlock()
		return energy.Zero, energy.Zero, fmt.Errorf("serve: shadow reprogram: %w", err)
	}
	// Repair-before-swap: transient write failures re-roll on the repair
	// epoch and usually clear; stuck-cell losses past the spare budget do
	// not, and block the swap.
	if h := sb.eng.HealthCheck(); !h.Healthy() {
		rcost, h2, rerr := sb.eng.RepairCtx(sp)
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

	visible = energy.Cost{LatencyPS: energy.EDRAMAccessLatencyPS, EnergyPJ: cost.EnergyPJ}
	return visible, cost, nil
}
