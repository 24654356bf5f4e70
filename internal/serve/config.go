// Serving configuration: one validated Config for the whole pipeline
// (batcher, pending list, reprogram retries, telemetry), built from
// Default() plus functional options. A single Config feeds both New (the
// Server) and NewShadowPair (the board); both validate the whole Config,
// each reads the fields it consumes, and shared plumbing (Registry,
// Tracer) is set once:
//
//	pair, _, err := serve.NewShadowPair(dcfg, net,
//	    serve.WithRetry(3),
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

	// MaxRetries bounds how many times a failed Reprogram is retried, back
	// to back (total attempts = MaxRetries + 1). Zero disables retries.
	MaxRetries int

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

// WithRetry sets the pair's reprogram retry budget.
func WithRetry(maxRetries int) Option { return func(c *Config) { c.MaxRetries = maxRetries } }

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
