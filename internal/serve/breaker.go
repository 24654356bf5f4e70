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
//   - After a successful swap, the new live engine is probed against a
//     labeled holdout set. If probe accuracy falls below MinAccuracy the
//     breaker trips: the degraded weights stay live (they were already
//     swapped and the old weights are now mid-overwrite on the standby),
//     but every subsequent batch sheds with a typed ErrUnhealthy instead
//     of silently serving bad answers.
//   - While tripped, InferBatch fails fast. A subsequent successful
//     Reprogram (healthy swap + passing probe) closes the breaker; Reset
//     forces it closed for operators who accept the degradation.
//
// The Server's flush loop recognizes ErrUnhealthy and sheds whole batches
// without the per-request fallback — retrying one request at a time
// against a tripped breaker is pure waste.
//
// The Breaker shares the pipeline-wide serve.Config: NewBreaker takes the
// same functional options as New, consuming the retry/backoff/probe fields
// (WithRetry, WithProbe, WithSeed) plus the shared Registry and Tracer.
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

// UnhealthyError carries the probe evidence behind a breaker trip. It
// unwraps to ErrUnhealthy so errors.Is(err, ErrUnhealthy) matches.
type UnhealthyError struct {
	// Accuracy is the measured probe accuracy that tripped the breaker.
	Accuracy float64
	// MinAccuracy is the configured floor it fell below.
	MinAccuracy float64
}

func (e *UnhealthyError) Error() string {
	return fmt.Sprintf("serve: probe accuracy %.4f below floor %.4f: %v",
		e.Accuracy, e.MinAccuracy, ErrUnhealthy)
}

// Unwrap makes errors.Is(err, ErrUnhealthy) true.
func (e *UnhealthyError) Unwrap() error { return ErrUnhealthy }

// breakerMetrics holds the breaker's interned metric handles.
type breakerMetrics struct {
	shed     *metrics.Counter
	trips    *metrics.Counter
	retries  *metrics.Counter
	probeAcc *metrics.Gauge
}

func newBreakerMetrics(reg *metrics.Registry) breakerMetrics {
	return breakerMetrics{
		shed:     reg.Counter("serve.breaker_shed"),
		trips:    reg.Counter("serve.breaker_trips"),
		retries:  reg.Counter("serve.reprogram_retries"),
		probeAcc: reg.Gauge("serve.probe_accuracy"),
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
// refined with opts (the breaker consumes the retry/backoff/probe fields;
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

// Pair returns the underlying shadow pair (statistics only).
func (b *Breaker) Pair() *ShadowPair { return b.pair }

// Tripped reports whether the breaker is open (shedding).
func (b *Breaker) Tripped() bool { return b.tripped.Load() }

// Reset forces the breaker closed without a probe: the operator accepts
// whatever weights are live.
func (b *Breaker) Reset() { b.tripped.Store(false) }

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

// Reprogram pushes net through the shadow pair with retry, backoff, and a
// post-swap accuracy probe. On success the breaker (re)closes. Failure
// modes:
//
//   - Every attempt failed (standby unhealthy after repair, or a hard
//     Load error): the breaker trips and the last error is returned; the
//     live engine keeps serving the previous weights.
//   - The swap happened but the probe came in under MinAccuracy: the
//     breaker trips and an *UnhealthyError with the evidence is returned.
//
// The hidden cost accumulates across every attempt — failed programming
// passes burn real energy, and the ledger shows it.
//
// With a tracer configured, each Reprogram is one "serve.reprogram" root
// span annotated with the attempt count, wrapping the per-attempt
// "serve.shadow_swap" spans (and their dpe.load / tile.program children).
// The span's cost is the visible cost — the hidden cost lives on the
// children and in HiddenCost().
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

	if len(b.cfg.ProbeInputs) > 0 {
		acc, perr := b.probe(sp)
		if perr != nil {
			b.trip()
			return energy.Zero, hidden, fmt.Errorf("serve: post-swap probe: %w", perr)
		}
		b.met.probeAcc.Set(acc)
		if acc < b.cfg.MinAccuracy {
			b.trip()
			return energy.Zero, hidden, &UnhealthyError{Accuracy: acc, MinAccuracy: b.cfg.MinAccuracy}
		}
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

// probe runs the holdout set through the live engine (bypassing the
// tripped check — the probe is how the breaker decides) and returns
// argmax accuracy.
func (b *Breaker) probe(pc obs.Ctx) (float64, error) {
	sp := pc.Child("serve.probe")
	outs, cost, err := b.pair.InferBatchCtx(sp, b.cfg.ProbeInputs)
	sp.End(cost)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, out := range outs {
		if argmax(out) == b.cfg.ProbeLabels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(outs)), nil
}

// argmax returns the index of the largest element (first on ties).
func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
