// Hedged requests: the "Tail at Scale" defense, made safe by determinism.
//
// A request that has waited longer than the fleet's tracked p95 latency is
// probably stuck behind a straggler (slow engine, stall, GC-of-the-analog
// world). Instead of waiting it out, the fleet re-issues the *same keyed
// request* to a different engine and takes whichever response lands first.
// Two properties make this trivially correct here where it is subtle in
// most systems:
//
//   - Keyed noise (docs/CLUSTER.md): the output is a pure function of
//     (seed, seq, input), so the hedge's answer is bit-identical to the
//     primary's — there is no "which reply do we trust" problem, and no
//     side effects to deduplicate.
//   - The loser is canceled, not abandoned: its context is torn down, so
//     a still-queued duplicate is shed before it reaches a crossbar and a
//     mid-batch one has its result discarded.
//
// The delay adapts: it tracks the p95 of the fleet's observed request
// latency, so only the slowest ~5% of requests ever hedge, and a token
// budget (5% of request volume) caps the extra load even when the latency
// distribution collapses. See docs/RESILIENCE.md for why p95-delay
// hedging needs the straggler's traffic share below the hedge quantile —
// and why the straggler sweep pairs hedging with the least-loaded policy.
package fleet

import (
	"context"
	"sync/atomic"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
)

// HedgeConfig tunes hedged requests. Zero fields take the defaults.
type HedgeConfig struct {
	// MaxDelay caps the adaptive delay (0 → 20ms): it keeps hedges firing
	// when a straggler has dragged p95 itself into the stall time.
	MaxDelay time.Duration
	// Burst bounds banked hedge tokens (0 → 64): a long quiet period cannot
	// bank an unbounded hedge storm.
	Burst int
}

const (
	// hedgeQuantile is the fleet latency quantile used as the hedge delay:
	// a request older than this is assumed stuck.
	hedgeQuantile = 0.95
	// hedgeMinDelay floors the adaptive delay, so a cold, fast fleet does
	// not hedge everything.
	hedgeMinDelay = 200 * time.Microsecond
	// hedgeBudget is the hedge rate cap as a fraction of submitted
	// requests: tokens accrue at hedgeBudget per request and each hedge
	// spends one. Denied hedges count in fleet.hedge_denied.
	hedgeBudget = 0.05
)

// hedger holds the live hedging state: the adaptive delay and the token
// budget, both lock-free.
type hedger struct {
	// minDelay / maxDelay clamp the adaptive delay; burst bounds the
	// bucket in hedges.
	minDelay, maxDelay time.Duration
	burst              int64
	// latency is the fleet.latency_ns histogram the delay tracks.
	latency *metrics.Histogram
	// delayNS is the cached adaptive delay, recomputed from the histogram
	// every delayEvery requests (a 64-bucket scan is too much per request).
	delayNS atomic.Int64
	tick    atomic.Uint64
	// credits is the token bucket in millitokens (1000 = one hedge).
	credits atomic.Int64
}

// delayEvery is the delay-refresh cadence in requests.
const delayEvery = 64

// hedgeToken is one hedge in millitokens.
const hedgeToken = 1000

func newHedger(cfg HedgeConfig, latency *metrics.Histogram) *hedger {
	h := &hedger{minDelay: hedgeMinDelay, maxDelay: cfg.MaxDelay, burst: int64(cfg.Burst), latency: latency}
	if h.maxDelay == 0 {
		h.maxDelay = 20 * time.Millisecond
	}
	if h.burst == 0 {
		h.burst = 64
	}
	h.delayNS.Store(int64(h.maxDelay))
	// The bucket starts full: a straggler in the first requests of a fresh
	// fleet is exactly when hedging pays, and the burst bound caps the cost.
	h.credits.Store(h.burst * hedgeToken)
	return h
}

// delay returns the current hedge delay, refreshing the cached quantile
// on the refresh cadence. With no latency history yet it stays at
// maxDelay — hedge conservatively until there is a distribution to track.
func (h *hedger) delay() time.Duration {
	if h.tick.Add(1)%delayEvery == 0 {
		if snap := h.latency.Snapshot(); snap.Count > 0 {
			d := time.Duration(snap.Quantile(hedgeQuantile))
			if d < h.minDelay {
				d = h.minDelay
			}
			if d > h.maxDelay {
				d = h.maxDelay
			}
			h.delayNS.Store(int64(d))
		}
	}
	return time.Duration(h.delayNS.Load())
}

// earn accrues hedge budget for one submitted request, clamped to the
// burst bound. The clamp races benignly: a concurrent earn can overshoot
// by a few tokens before the store lands, never unboundedly.
func (h *hedger) earn() {
	if v := h.credits.Add(int64(hedgeBudget * hedgeToken)); v > h.burst*hedgeToken {
		h.credits.Store(h.burst * hedgeToken)
	}
}

// spend takes one hedge token, reporting whether the budget allowed it.
func (h *hedger) spend() bool {
	if h.credits.Add(-hedgeToken) < 0 {
		h.credits.Add(hedgeToken)
		return false
	}
	return true
}

// attemptResult carries one submission attempt's outcome between the
// hedging goroutines and the arbiter.
type attemptResult struct {
	out  []float64
	cost energy.Cost
	err  error
}

// submitHedged runs the primary attempt with a hedge armed behind the
// adaptive delay. The first success wins and the loser's context is
// canceled (a queued duplicate is shed, a mid-batch one discarded —
// bounded waste either way). If one side fails hard, the other's outcome
// is awaited rather than discarded, so a hedge also doubles as fast
// failover insurance: a keyed request is lost only when *both* lanes fail.
//
// The primary attempt holds buf until it finishes, since it can outlive
// this call; the caller's hold covers the arbiter's reads of the order.
func (f *Fleet) submitHedged(ctx context.Context, buf *orderBuf, seq uint64, in []float64) ([]float64, energy.Cost, error) {
	h := f.hedge
	h.earn()
	order := buf.engines

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	prim := make(chan attemptResult, 1)
	buf.hold()
	go func() {
		defer buf.release()
		out, cost, err := f.tryOrder(pctx, order, seq, in)
		prim <- attemptResult{out, cost, err}
	}()

	timer := time.NewTimer(h.delay())
	defer timer.Stop()

	var hch chan attemptResult // nil until the hedge launches
	var hcancel context.CancelFunc
	defer func() {
		if hcancel != nil {
			hcancel()
		}
	}()

	for {
		select {
		case r := <-prim:
			if r.err == nil || hch == nil {
				return r.out, r.cost, r.err
			}
			// Primary failed with a hedge in flight: the hedge is now the
			// request's only hope — wait for it.
			if hr := <-hch; hr.err == nil {
				f.met.hedgeWon.Inc()
				return hr.out, hr.cost, nil
			}
			return r.out, r.cost, r.err
		case hr := <-hch:
			if hr.err == nil {
				pcancel()
				f.met.hedgeWon.Inc()
				return hr.out, hr.cost, nil
			}
			// Hedge lost its race with a failure; the primary decides.
			r := <-prim
			return r.out, r.cost, r.err
		case <-timer.C:
			if !h.spend() {
				f.met.hedgeDenied.Inc()
				continue // budget exhausted; ride the primary out
			}
			f.met.hedged.Inc()
			// The hedge prefers engines the primary tried last: order[0]
			// is almost certainly where the primary is stuck.
			hedgeOrder := make([]*Engine, 0, len(order))
			hedgeOrder = append(hedgeOrder, order[1:]...)
			hedgeOrder = append(hedgeOrder, order[0])
			hctx, cancel := context.WithCancel(ctx)
			hcancel = cancel
			hch = make(chan attemptResult, 1)
			go func() {
				out, cost, err := f.tryOrder(hctx, hedgeOrder, seq, in)
				hch <- attemptResult{out, cost, err}
			}()
		}
	}
}
