// Health-aware circuit breaker over a shadow-engine pair.
//
// The fault subsystem (internal/faultinject, docs/FAULTS.md) makes weight
// updates fallible: program-and-verify can exhaust retry budgets, spare
// columns can run out, and a freshly swapped engine can compute garbage on
// cells the self-test could not save. The Breaker is the serving layer's
// response. It wraps a ShadowPair and adds three behaviors:
//
//   - Reprogram failures are retried with exponential backoff plus
//     deterministic jitter (a counter-based noise stream, so tests replay
//     bit-identically). Each retry re-runs Load on a fresh program epoch,
//     which re-rolls transient write failures.
//   - When every attempt fails, the breaker trips: the live engine keeps
//     its previous weights, but every subsequent batch sheds with a typed
//     ErrUnhealthy instead of silently serving from an engine the fault
//     model could not reprogram.
//   - While tripped, InferBatch fails fast. A subsequent successful
//     Reprogram closes the breaker.
//
// The Server's flush loop recognizes ErrUnhealthy and sheds whole batches
// without the per-request fallback — retrying one request at a time
// against a tripped breaker is pure waste.
//
// The Breaker shares the pipeline-wide serve.Config: NewBreaker takes the
// same functional options as New, consuming the retry/backoff fields
// (WithRetry, WithSeed) plus the shared Registry and Tracer.
package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// ErrUnhealthy is the typed sentinel for health-driven load shedding: a
// tripped Breaker returns it from InferBatch, and ShadowPair.Reprogram
// wraps it when a standby stays unhealthy after repair. Callers match it
// with errors.Is; the Server's flusher sheds whole batches on it.
var ErrUnhealthy = errors.New("serve: backend unhealthy")

// breakerMetrics holds the breaker's interned metric handles.
type breakerMetrics struct {
	shed    *metrics.Counter
	trips   *metrics.Counter
	retries *metrics.Counter
}

func newBreakerMetrics(reg *metrics.Registry) breakerMetrics {
	return breakerMetrics{
		shed:    reg.Counter("serve.breaker_shed"),
		trips:   reg.Counter("serve.breaker_trips"),
		retries: reg.Counter("serve.reprogram_retries"),
	}
}

// Breaker is a health-aware circuit breaker implementing Backend over a
// ShadowPair. Construct with NewBreaker; the zero value is not usable.
// InferBatch is safe for concurrent use; Reprogram calls are serialized
// internally and may run concurrently with InferBatch.
type Breaker struct {
	cfg    Config
	pair   *ShadowPair
	reg    *metrics.Registry
	met    breakerMetrics
	tracer *obs.Tracer

	jitter  noise.Source
	draws   atomic.Uint64 // jitter stream position
	tripped atomic.Bool
}

// NewBreaker wraps pair with health gating, configured by Default()
// refined with opts (the breaker consumes the retry/backoff fields;
// batcher fields are ignored here and validated by New).
func NewBreaker(pair *ShadowPair, opts ...Option) (*Breaker, error) {
	if pair == nil {
		return nil, fmt.Errorf("serve: nil shadow pair")
	}
	cfg := build(opts)
	if err := cfg.validateBreaker(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Breaker{
		cfg:    cfg,
		pair:   pair,
		reg:    reg,
		met:    newBreakerMetrics(reg),
		tracer: cfg.Tracer,
		jitter: noise.NewSource(cfg.Seed),
	}, nil
}

// Tripped reports whether the breaker is open (shedding).
func (b *Breaker) Tripped() bool { return b.tripped.Load() }

// InferBatch serves the batch from the live engine, or sheds the whole
// batch with ErrUnhealthy while the breaker is open.
func (b *Breaker) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	return b.InferBatchCtx(obs.Ctx{}, inputs)
}

// InferBatchCtx is InferBatch with tracing, linking the shadow pair's
// span tree under pc. Shed batches record no child spans (nothing ran).
func (b *Breaker) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if b.tripped.Load() {
		b.met.shed.Add(int64(len(inputs)))
		return nil, energy.Zero, fmt.Errorf("serve: breaker open: %w", ErrUnhealthy)
	}
	return b.pair.InferBatchCtx(pc, inputs)
}

// InferBatchKeyedCtx is the request-keyed-noise variant of InferBatchCtx:
// it forwards caller-owned noise sequence numbers to the pair (and from
// there to dpe.Engine.InferBatchKeyed), shedding identically to
// InferBatchCtx while the breaker is open.
func (b *Breaker) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if b.tripped.Load() {
		b.met.shed.Add(int64(len(inputs)))
		return nil, energy.Zero, fmt.Errorf("serve: breaker open: %w", ErrUnhealthy)
	}
	return b.pair.InferBatchKeyedCtx(pc, seqs, inputs)
}

// Reprogram pushes net through the shadow pair with retry and backoff. On
// success the breaker (re)closes. If every attempt fails (standby
// unhealthy after repair, or a hard Load error) the breaker trips and the
// last error is returned; the live engine keeps serving the previous
// weights.
//
// The hidden cost accumulates across every attempt — failed programming
// passes burn real energy, and the ledger shows it.
//
// With a tracer configured, each Reprogram is one "serve.reprogram" root
// span annotated with the attempt count, wrapping the per-attempt
// "serve.shadow_swap" spans (and their dpe.load / tile.program children).
// The span's cost is the visible cost — the hidden cost lives on the
// children.
func (b *Breaker) Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error) {
	sp := b.tracer.Root("serve.reprogram")
	attempts := 0
	visible, hidden, err = b.reprogram(sp, net, &attempts)
	if sp.Active() {
		sp.Annotate("attempts", float64(attempts))
		if err != nil {
			sp.Annotate("error", 1)
		}
	}
	sp.End(visible)
	return visible, hidden, err
}

func (b *Breaker) reprogram(sp obs.Ctx, net *nn.Network, attemptsOut *int) (visible, hidden energy.Cost, err error) {
	attempts := b.cfg.MaxRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		*attemptsOut = attempt + 1
		if attempt > 0 {
			b.met.retries.Inc()
			if d := b.backoff(attempt - 1); d > 0 {
				time.Sleep(d)
			}
		}
		var v, h energy.Cost
		v, h, err = b.pair.ReprogramCtx(sp, net)
		hidden = hidden.Seq(h)
		if err == nil {
			visible = v
			break
		}
	}
	if err != nil {
		b.trip()
		return energy.Zero, hidden, fmt.Errorf("serve: reprogram failed after %d attempts: %w", attempts, err)
	}
	b.tripped.Store(false)
	return visible, hidden, nil
}

// trip opens the breaker and counts the transition.
func (b *Breaker) trip() {
	if !b.tripped.Swap(true) {
		b.met.trips.Inc()
	}
}

// backoff returns attempt k's delay: BaseBackoff << k capped at
// MaxBackoff, scaled by a deterministic jitter factor in [0.5, 1) so
// synchronized retries decorrelate without losing replayability.
func (b *Breaker) backoff(k int) time.Duration {
	if b.cfg.BaseBackoff <= 0 {
		return 0
	}
	d := b.cfg.BaseBackoff
	for i := 0; i < k && d < 1<<40; i++ {
		d *= 2
	}
	if b.cfg.MaxBackoff > 0 && d > b.cfg.MaxBackoff {
		d = b.cfg.MaxBackoff
	}
	f := 0.5 + 0.5*b.jitter.Float64(b.draws.Add(1))
	return time.Duration(float64(d) * f)
}
