// Serving configuration: one validated Config for the whole pipeline
// (batcher, pending list, breaker retry/backoff, health probe, telemetry),
// built from Default() plus functional options.
//
// Before this redesign the batcher and the circuit breaker each took their
// own config struct (Config and BreakerConfig) with overlapping plumbing
// fields (Registry, Seed), and callers had to keep the two consistent by
// hand. Now a single Config feeds both New (the Server) and NewBreaker;
// each constructor validates the fields it consumes, and shared plumbing
// (Registry, Tracer) is set once:
//
//	srv, err := serve.New(backend,
//	    serve.WithBatch(64, 2*time.Millisecond),
//	    serve.WithQueueBound(4096),
//	    serve.WithRegistry(reg),
//	    serve.WithTracer(tracer),
//	)
//	brk, err := serve.NewBreaker(pair,
//	    serve.WithRetry(3, time.Millisecond, 50*time.Millisecond),
//	    serve.WithProbe(0.9, probeIns, probeLabels),
//	    serve.WithRegistry(reg),
//	)
//
// Zero options means Default(): the exact pre-redesign defaults.
package serve

import (
	"fmt"
	"time"

	"cimrev/internal/metrics"
	"cimrev/internal/obs"
)

// Config configures the serving pipeline. Construct with Default() (or
// zero options to New/NewBreaker) and refine with functional options; a
// hand-built Config can be installed wholesale with WithConfig.
type Config struct {
	// --- Micro-batcher (Server) ---

	// MaxBatch caps a batch: the flusher takes at most this many pending
	// requests per flush. Must be >= 1.
	MaxBatch int
	// MaxDelay is validated (must be > 0) but not read: the batcher is
	// work-conserving and never holds a request back for batch-mates. It
	// stays only because WithBatch still takes it.
	MaxDelay time.Duration
	// QueueBound is the pending list's high-water mark: the maximum
	// number of requests waiting for the flusher. Must be >= 1. Requests
	// beyond it are rejected with ErrOverloaded.
	QueueBound int

	// --- Circuit breaker (Breaker) ---

	// MinAccuracy is the probe-accuracy floor in [0, 1]. A post-swap probe
	// below it trips the breaker. With no probe set, accuracy gating is
	// skipped and only reprogram failures can trip.
	MinAccuracy float64
	// ProbeInputs / ProbeLabels are the labeled holdout set probed after
	// every swap. Labels are argmax class indices. Both may be empty
	// (disables probing); lengths must match.
	ProbeInputs [][]float64
	ProbeLabels []int
	// MaxRetries bounds how many times a failed Reprogram is retried
	// (total attempts = MaxRetries + 1). Zero disables retries.
	MaxRetries int
	// BaseBackoff is the first retry's nominal delay; attempt k waits
	// BaseBackoff << k, capped at MaxBackoff, scaled by a jitter factor
	// in [0.5, 1). Zero disables sleeping (retries run back to back).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means uncapped.
	MaxBackoff time.Duration
	// Seed keys the retry-jitter stream. Jitter draws are a pure function
	// of (Seed, attempt counter), so retry schedules replay exactly.
	Seed int64

	// --- Shared plumbing ---

	// Registry receives serving metrics. Nil selects a private registry
	// (always safe; reachable via Server.Registry).
	Registry *metrics.Registry
	// Tracer records serve-layer spans (flushes, shadow swaps, breaker
	// reprograms) and is threaded down into the engine/crossbar spans.
	// Nil or disabled means the pipeline pays only nil-check branches.
	Tracer *obs.Tracer
}

// Default returns the serving configuration the benchmarks use: batches
// up to 64, a 2ms MaxDelay, a 4096-deep pending list, no retries,
// and no probe — identical to the pre-redesign DefaultConfig() +
// zero-valued BreakerConfig behavior.
func Default() Config {
	return Config{MaxBatch: 64, MaxDelay: 2 * time.Millisecond, QueueBound: 4096}
}

// Validate reports whether the configuration is usable. Like the
// crossbar's ADCBits=0 rejection, degenerate serving parameters fail fast
// at construction with a descriptive error instead of deadlocking or
// spinning later.
func (c Config) Validate() error {
	switch {
	case c.MaxBatch < 1:
		return fmt.Errorf("serve: MaxBatch must be >= 1, got %d (a batcher that never fills never flushes)", c.MaxBatch)
	case c.MaxDelay <= 0:
		return fmt.Errorf("serve: MaxDelay must be positive, got %v", c.MaxDelay)
	case c.QueueBound < 1:
		return fmt.Errorf("serve: QueueBound must be >= 1, got %d (a zero-length pending list rejects every request)", c.QueueBound)
	}
	return c.validateBreaker()
}

// validateBreaker checks only the breaker-facing fields; NewBreaker uses
// it directly so a Breaker-only caller need not fill batcher fields.
func (c Config) validateBreaker() error {
	switch {
	case c.MinAccuracy < 0 || c.MinAccuracy > 1:
		return fmt.Errorf("serve: MinAccuracy must be in [0, 1], got %g", c.MinAccuracy)
	case len(c.ProbeInputs) != len(c.ProbeLabels):
		return fmt.Errorf("serve: probe set mismatch: %d inputs, %d labels",
			len(c.ProbeInputs), len(c.ProbeLabels))
	case c.MaxRetries < 0:
		return fmt.Errorf("serve: MaxRetries must be >= 0, got %d", c.MaxRetries)
	case c.BaseBackoff < 0 || c.MaxBackoff < 0:
		return fmt.Errorf("serve: backoff durations must be >= 0")
	case c.MaxBackoff > 0 && c.BaseBackoff > c.MaxBackoff:
		return fmt.Errorf("serve: BaseBackoff %v exceeds MaxBackoff %v", c.BaseBackoff, c.MaxBackoff)
	}
	return nil
}

// Option mutates a Config during construction.
type Option func(*Config)

// WithConfig replaces the whole configuration (applied before any other
// option in the same call takes effect, in argument order).
func WithConfig(cfg Config) Option { return func(c *Config) { *c = cfg } }

// WithBatch sets the batch cap and MaxDelay (validated, not read).
func WithBatch(maxBatch int, maxDelay time.Duration) Option {
	return func(c *Config) { c.MaxBatch, c.MaxDelay = maxBatch, maxDelay }
}

// WithQueueBound sets the pending list's high-water mark.
func WithQueueBound(n int) Option { return func(c *Config) { c.QueueBound = n } }

// WithRetry sets the breaker's reprogram retry budget and backoff window.
func WithRetry(maxRetries int, base, max time.Duration) Option {
	return func(c *Config) { c.MaxRetries, c.BaseBackoff, c.MaxBackoff = maxRetries, base, max }
}

// WithProbe installs the post-swap holdout probe and its accuracy floor.
func WithProbe(minAccuracy float64, inputs [][]float64, labels []int) Option {
	return func(c *Config) { c.MinAccuracy, c.ProbeInputs, c.ProbeLabels = minAccuracy, inputs, labels }
}

// WithSeed keys the deterministic retry-jitter stream.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithRegistry routes metrics into reg instead of a private registry.
func WithRegistry(reg *metrics.Registry) Option { return func(c *Config) { c.Registry = reg } }

// WithTracer records serve-layer (and downstream engine/crossbar) spans
// into tr.
func WithTracer(tr *obs.Tracer) Option { return func(c *Config) { c.Tracer = tr } }

// build folds options over Default().
func build(opts []Option) Config {
	cfg := Default()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}
