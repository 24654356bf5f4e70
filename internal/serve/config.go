// Serving configuration: one validated Config for the whole pipeline
// (batcher, pending list, reprogram retry/backoff, telemetry), built from
// Default() plus functional options. A single Config feeds both New (the
// Server) and NewShadowPair (the board); both validate the whole Config,
// each reads the fields it consumes, and shared plumbing (Registry,
// Tracer) is set once:
//
//	pair, _, err := serve.NewShadowPair(dcfg, net,
//	    serve.WithRetry(3, time.Millisecond, 50*time.Millisecond),
//	    serve.WithRegistry(reg),
//	)
//	srv, err := serve.New(pair,
//	    serve.WithBatch(64, 0),
//	    serve.WithQueueBound(4096),
//	    serve.WithRegistry(reg),
//	    serve.WithTracer(tracer),
//	)
//
// Zero options means Default().
package serve

import (
	"fmt"
	"time"

	"cimrev/internal/metrics"
	"cimrev/internal/obs"
)

// Config configures the serving pipeline. Construct with Default() (or
// zero options to New/NewShadowPair) and refine with functional options.
type Config struct {
	// --- Micro-batcher (Server) ---

	// MaxBatch caps a batch: the flusher takes at most this many pending
	// requests per flush. Must be >= 1.
	MaxBatch int
	// QueueBound is the pending list's high-water mark: the maximum
	// number of requests waiting for the flusher. Must be >= 1. Requests
	// beyond it are rejected with ErrOverloaded.
	QueueBound int

	// --- Reprogram retry (ShadowPair) ---

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
	// Tracer records serve-layer spans (flushes, reprograms and their
	// shadow swaps) and is threaded down into the engine/crossbar spans.
	// Nil or disabled means the pipeline pays only nil-check branches.
	Tracer *obs.Tracer
}

// Default returns the serving configuration the benchmarks use: batches
// up to 64, a 4096-deep pending list and no retries.
func Default() Config {
	return Config{MaxBatch: 64, QueueBound: 4096}
}

// Validate reports whether the configuration is usable. Like the
// crossbar's ADCBits=0 rejection, degenerate serving parameters fail fast
// at construction with a descriptive error instead of deadlocking or
// spinning later.
func (c Config) Validate() error {
	switch {
	case c.MaxBatch < 1:
		return fmt.Errorf("serve: MaxBatch must be >= 1, got %d (a batcher that never fills never flushes)", c.MaxBatch)
	case c.QueueBound < 1:
		return fmt.Errorf("serve: QueueBound must be >= 1, got %d (a zero-length pending list rejects every request)", c.QueueBound)
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

// WithBatch sets the batch cap. The second argument is ignored: the
// batcher is work-conserving and never holds a request back for
// batch-mates, so there is no delay to set.
func WithBatch(maxBatch int, _ time.Duration) Option {
	return func(c *Config) { c.MaxBatch = maxBatch }
}

// WithQueueBound sets the pending list's high-water mark.
func WithQueueBound(n int) Option { return func(c *Config) { c.QueueBound = n } }

// WithRetry sets the pair's reprogram retry budget and backoff window.
func WithRetry(maxRetries int, base, max time.Duration) Option {
	return func(c *Config) { c.MaxRetries, c.BaseBackoff, c.MaxBackoff = maxRetries, base, max }
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
