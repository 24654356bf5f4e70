// Package serve is the request-level inference serving pipeline: it fans
// millions of small, independent requests — each submitted through the one
// entry point, Server.SubmitKeyed, under its own noise key — into the fast
// batched kernels underneath (dpe.Engine.InferBatchKeyed; dpe.Cluster's
// InferBatch, which takes no keys, is served through the plain path), which is
// where the Section VI throughput claims actually live. "Breaking
// Barriers" (Crafton et al., PAPERS.md) makes the point sharply: CIM
// throughput is dominated by array *utilization*, not raw array speed, and
// a serial request stream leaves the crossbars idle between requests.
//
// The pipeline has three pieces:
//
//   - A work-conserving micro-batcher (Server): requests join a pending
//     list, and one long-lived flusher goroutine takes up to MaxBatch of
//     them from its head, flushes them as one device batch, and repeats
//     until the list is empty. A batch is whatever arrived while the
//     previous flush ran: one request at light load, full batches at
//     saturation. No request waits on a timer for batch-mates.
//   - Explicit backpressure and cancellation: the pending list holds at
//     most QueueBound requests. Past the high-water mark, SubmitKeyed fails
//     fast with ErrOverloaded instead of growing an unbounded queue. It also
//     honors context.Context — a deadline is the caller's ctx: a caller that
//     cancels stops waiting with ErrCanceled, one whose deadline fires with
//     ErrDeadlineExceeded, and the flush loop skips requests whose context
//     died while they sat in the queue — abandoned work is shed, not
//     computed.
//   - Observability: per-request wall-clock latency lands in a lock-free
//     metrics.Histogram (p50/p95/p99 via HistogramSnapshot.Quantile), the
//     simulated cost algebra (internal/energy) keeps running totals of
//     virtual busy time and energy. All metric handles are interned once
//     at construction; the request hot path never does a registry lookup.
//
// Zero-downtime weight updates are the fourth piece, in shadow.go: a
// ShadowPair programs a standby engine while the live one keeps serving,
// then swaps atomically — the write-asymmetry hiding of Section VI realized
// as double-buffering at the serving layer — and trips, shedding typed,
// when a reprogram cannot land. See docs/SERVING.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
	"cimrev/internal/obs"
)

// Backend is the batched inference kernel the pipeline feeds. Both
// *dpe.Engine and *dpe.Cluster (and *ShadowPair, which wraps two engines)
// satisfy it.
type Backend interface {
	// InferBatch runs the batch, returning one output per input plus the
	// simulated cost of the whole batch. It must be safe for the pipeline
	// to call from its flusher goroutine while other goroutines read
	// engine statistics. It must not keep inputs (the flusher's scratch).
	InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error)
}

// KeyedBackend is the request-keyed-noise form of Backend (dpe.Engine,
// ShadowPair, hybrid.Dispatcher), and a backend is either keyed or plain.
// A keyed backend gets every request's noise sequence number down to the
// engine, making its output a pure function of (engine config, key, input)
// — independent of batch composition, queue interleaving, or which engine
// of a fleet serves it (docs/CLUSTER.md). The server passes the zero
// obs.Ctx: it records no spans. A plain Backend is served through
// InferBatch, ignoring the keys. A wrapper around a backend must keep it
// keyed (chaos.Injector.Wrap does).
type KeyedBackend interface {
	InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error)
}

// ErrOverloaded is returned by SubmitKeyed when the pending list is at its
// high-water mark. The request was NOT enqueued; the caller owns the retry
// policy. This is the backpressure contract: past QueueBound the server
// sheds load instead of queueing without bound.
var ErrOverloaded = errors.New("serve: ingress queue full (backpressure)")

// ErrClosed is returned by SubmitKeyed after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrCanceled is returned by SubmitKeyed when the request's context is
// *canceled* before a result arrives. The request may still be skipped (if
// its batch had not flushed yet) or its result discarded (if it had);
// either way the caller has stopped paying for it. A context whose
// *deadline* fired gets ErrDeadlineExceeded instead — the two causes are
// distinct sentinels and are counted separately in the registry
// (serve.canceled vs serve.deadline_exceeded).
var ErrCanceled = errors.New("serve: request canceled")

// ErrDeadlineExceeded is returned by SubmitKeyed when the request's context
// deadline fires before a result arrives — the latency-budget signal, as
// opposed to ErrCanceled (the caller walked away). Expired requests are
// shed at whatever stage the expiry is detected: before enqueue, while
// queued (skipped before the batch flushes, so dead work never reaches the
// crossbars), or mid-batch (the device result is discarded). The per-stage
// counters serve.deadline_pre_enqueue / serve.deadline_queued /
// serve.deadline_mid_batch account for where deadlines fire; see
// docs/RESILIENCE.md.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// request is one enqueued inference, carrying its own noise sequence number
// down to a KeyedBackend.
type request struct {
	ctx  context.Context
	in   []float64
	seq  uint64
	resp chan response
}

// requestPool recycles requests, each with its response channel. A request
// goes back only from a caller that received its response, because the
// flusher is then done with it; a caller that leaves on ctx.Done abandons
// it to the collector, since the flusher may still send into its channel.
var requestPool = sync.Pool{New: func() any { return &request{resp: make(chan response, 1)} }}

// response carries the result back to the waiting caller.
type response struct {
	out  []float64
	cost energy.Cost
	err  error
}

// serverMetrics holds the server's interned metric handles, resolved once
// at construction so the request and flush hot paths touch only lock-free
// atomics.
type serverMetrics struct {
	rejected    *metrics.Counter
	canceled    *metrics.Counter
	requests    *metrics.Counter
	batches     *metrics.Counter
	batchErrors *metrics.Counter
	errors      *metrics.Counter
	unhealthy   *metrics.Counter
	latencyNS   *metrics.Histogram
	batchSize   *metrics.Histogram
	energyPJ    *metrics.Gauge

	// Deadline accounting (docs/RESILIENCE.md): deadline is the cause
	// total (the sibling of canceled); the three stage counters record
	// where the expiry was detected — before enqueue, while queued (shed
	// before flush), or mid-batch (device result discarded).
	deadline           *metrics.Counter
	deadlinePreEnqueue *metrics.Counter
	deadlineQueued     *metrics.Counter
	deadlineMidBatch   *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	return serverMetrics{
		rejected:    reg.Counter("serve.rejected"),
		canceled:    reg.Counter("serve.canceled"),
		requests:    reg.Counter("serve.requests"),
		batches:     reg.Counter("serve.batches"),
		batchErrors: reg.Counter("serve.batch_errors"),
		errors:      reg.Counter("serve.errors"),
		unhealthy:   reg.Counter("serve.unhealthy"),
		latencyNS:   reg.Histogram("serve.latency_ns"),
		batchSize:   reg.Histogram("serve.batch_size"),
		energyPJ:    reg.Gauge("serve.energy_pj"),

		deadline:           reg.Counter("serve.deadline_exceeded"),
		deadlinePreEnqueue: reg.Counter("serve.deadline_pre_enqueue"),
		deadlineQueued:     reg.Counter("serve.deadline_queued"),
		deadlineMidBatch:   reg.Counter("serve.deadline_mid_batch"),
	}
}

// expire classifies a context failure, counts the cause (serve.canceled vs
// serve.deadline_exceeded), and returns the typed error the caller gets:
// cause wrapped in ErrDeadlineExceeded when the deadline fired, in
// ErrCanceled for a plain cancellation.
func (m *serverMetrics) expire(cause error) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		m.deadline.Inc()
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, cause)
	}
	m.canceled.Inc()
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Server is the micro-batching inference frontend. Construct with New;
// the zero value is not usable.
type Server struct {
	cfg     Config
	backend Backend
	kbe     KeyedBackend // non-nil iff backend implements InferBatchKeyedCtx
	met     serverMetrics

	// mu guards pending and closed. work wakes the parked flusher when a
	// request arrives or the server closes; flusherDone closes as it exits.
	mu          sync.Mutex
	work        *sync.Cond
	pending     []*request
	closed      bool
	flusherDone chan struct{}

	// batch and inputs are the flusher's scratch, reused flush to flush.
	batch  []*request
	inputs [][]float64

	// simPS accumulates the simulated latency of every flushed batch:
	// the virtual time the device spent serving. Energy accumulates in
	// the "serve.energy_pj" gauge.
	simPS atomic.Int64
}

// New starts a server over backend, configured by Default() refined with
// opts. The flusher goroutine runs until Close.
func New(backend Backend, opts ...Option) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("serve: nil backend")
	}
	cfg := build(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:         cfg,
		backend:     backend,
		met:         newServerMetrics(reg),
		flusherDone: make(chan struct{}),
	}
	s.work = sync.NewCond(&s.mu)
	s.kbe, _ = backend.(KeyedBackend)
	go s.flusher()
	return s, nil
}

// QueueDepth returns how many requests currently wait in the pending list
// for the flusher to take them. It is a point-in-time reading, safe to
// call concurrently — the fleet router's least-loaded policy polls it on
// every routing decision.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// SimTimePS returns the accumulated simulated serving time in picoseconds:
// the sum of every flushed batch's critical-path latency. Requests per
// simulated second is requests / (SimTimePS * 1e-12).
func (s *Server) SimTimePS() int64 { return s.simPS.Load() }

// SubmitKeyed submits one inference under a caller-owned noise sequence
// number and blocks until its batch completes or ctx is done. It is the one
// way into the server. The request's analog read noise is drawn from the
// stream for seq, so the output is a pure function of (engine config, seq,
// input) — identical no matter how the batcher groups it or which engine of
// a fleet serves it (docs/CLUSTER.md). That needs a backend implementing
// InferBatchKeyedCtx (dpe.Engine, ShadowPair, hybrid.Dispatcher);
// over a plain Backend the key is ignored.
//
// The returned cost is the request's share of its batch: the full batch
// latency (the request waited for the whole batch) and 1/n of the batch
// energy. The caller must not mutate in until SubmitKeyed returns.
//
// SubmitKeyed fails fast with ErrOverloaded when the pending list is at
// its bound and with ErrClosed after Close; both leave the request
// unqueued. A per-request latency budget is the caller's ctx (a nil ctx is
// context.Background()): if ctx is canceled while the request waits the
// caller gets ErrCanceled, if its deadline fires ErrDeadlineExceeded, each
// wrapping ctx.Err(). The request is shed at whatever stage the expiry is
// detected — before enqueue, while queued (skipped at flush time), or
// mid-batch (it completes on the device but its result is discarded). See
// docs/RESILIENCE.md for the deadline-propagation contract.
func (s *Server) SubmitKeyed(ctx context.Context, seq uint64, in []float64) ([]float64, energy.Cost, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.deadlinePreEnqueue.Inc()
		}
		return nil, energy.Zero, s.met.expire(err)
	}
	start := time.Now()

	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return nil, energy.Zero, ErrClosed
	case len(s.pending) >= s.cfg.QueueBound:
		s.mu.Unlock()
		s.met.rejected.Inc()
		return nil, energy.Zero, ErrOverloaded
	}
	req := requestPool.Get().(*request)
	req.ctx, req.in, req.seq = ctx, in, seq
	s.pending = append(s.pending, req)
	s.mu.Unlock()
	s.work.Signal() // wakes the flusher if it is parked; a no-op while it flushes

	select {
	case r := <-req.resp:
		s.met.latencyNS.Observe(float64(time.Since(start).Nanoseconds()))
		req.ctx, req.in = nil, nil
		requestPool.Put(req)
		if r.err != nil {
			return nil, energy.Zero, r.err
		}
		return r.out, r.cost, nil
	case <-ctx.Done():
		// The flusher will still send into the buffered resp channel (or
		// skip the request at flush); nobody is listening, nothing leaks.
		return nil, energy.Zero, s.met.expire(ctx.Err())
	}
}

// Close stops accepting requests, drains everything already pending
// (in-flight callers get real responses, not errors), and waits for the
// flusher to exit. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.work.Signal()
	<-s.flusherDone
}

// flusher is the batcher loop: take a batch, flush it, repeat. It parks
// while nothing is pending and exits once the server is closed and drained.
func (s *Server) flusher() {
	defer close(s.flusherDone)
	for s.take() {
		s.flush(s.batch)
	}
}

// take moves up to MaxBatch requests from the head of the pending list into
// the flusher's batch, first waiting for one to arrive. It reports false
// once the server is closed and nothing is pending.
func (s *Server) take() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 {
		if s.closed {
			return false
		}
		s.work.Wait()
	}
	n := min(len(s.pending), s.cfg.MaxBatch)
	s.batch = append(s.batch[:0], s.pending[:n]...)
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:])
	s.pending = s.pending[:rest]
	return true
}

// shedExpired drops requests whose context died while they were pending, so
// dead work never reaches the crossbars. They get no response: the closed
// Done channel already unblocks their callers. Only the queued-stage counter
// is bumped here; the cause counters are the caller's, bumped by expire.
func (s *Server) shedExpired(batch []*request) []*request {
	kept := batch[:0]
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.met.deadlineQueued.Inc()
			}
			continue
		}
		kept = append(kept, req)
	}
	return kept
}

// inferBatch invokes the backend for one device batch: with the requests'
// noise keys through InferBatchKeyedCtx when the backend has it, otherwise
// through the plain InferBatch (keys ignored). Keys, unlike inputs, are
// allocated per flush: a backend may keep them.
func (s *Server) inferBatch(batch []*request, inputs [][]float64) ([][]float64, energy.Cost, error) {
	if s.kbe != nil {
		seqs := make([]uint64, len(batch))
		for i, req := range batch {
			seqs[i] = req.seq
		}
		return s.kbe.InferBatchKeyedCtx(obs.Ctx{}, seqs, inputs)
	}
	return s.backend.InferBatch(inputs)
}

// flush sheds the requests that died in the queue, runs the rest through
// the backend as one device batch, and distributes results. A batch-level
// error falls back to per-request execution so that one bad request (wrong
// input length, say) cannot poison its batchmates: only the offending
// request sees its error.
func (s *Server) flush(batch []*request) {
	batch = s.shedExpired(batch)
	if len(batch) == 0 {
		return
	}
	s.inputs = s.inputs[:0]
	for _, req := range batch {
		s.inputs = append(s.inputs, req.in)
	}
	outs, cost, err := s.inferBatch(batch, s.inputs)
	if err != nil {
		if errors.Is(err, ErrUnhealthy) {
			// Health-driven shed: a tripped shadow pair (or an unhealthy
			// backend) fails every request identically, so the
			// per-request fallback below would just hammer it N more
			// times. Shed the whole batch with the typed error and let
			// callers decide whether to retry, reroute, or alarm.
			s.met.unhealthy.Add(int64(len(batch)))
			for _, req := range batch {
				req.resp <- response{err: err}
			}
			return
		}
		s.met.batchErrors.Inc()
		s.flushIndividually(batch)
		return
	}
	s.met.batches.Inc()
	s.met.requests.Add(int64(len(batch)))
	s.met.batchSize.Observe(float64(len(batch)))
	s.met.energyPJ.Add(cost.EnergyPJ)
	s.simPS.Add(cost.LatencyPS)
	share := energy.Cost{LatencyPS: cost.LatencyPS, EnergyPJ: cost.EnergyPJ / float64(len(batch))}
	for i, req := range batch {
		if errors.Is(req.ctx.Err(), context.DeadlineExceeded) {
			// The deadline fired while the request was on the device: the
			// result lands in the buffered channel but the caller has
			// already surfaced ErrDeadlineExceeded.
			s.met.deadlineMidBatch.Inc()
		}
		req.resp <- response{out: outs[i], cost: share}
	}
}

// flushIndividually retries a failed batch one request at a time,
// isolating the poison pill. Healthy requests pay single-request batch
// cost; failing ones get their own error. Requests keep their keys, so the
// retried output is bit-identical to the batched one.
func (s *Server) flushIndividually(batch []*request) {
	for _, req := range batch {
		outs, cost, err := s.inferBatch([]*request{req}, [][]float64{req.in})
		if err != nil {
			s.met.errors.Inc()
			req.resp <- response{err: fmt.Errorf("serve: request failed: %w", err)}
			continue
		}
		s.met.batches.Inc()
		s.met.requests.Inc()
		s.met.batchSize.Observe(1)
		s.met.energyPJ.Add(cost.EnergyPJ)
		s.simPS.Add(cost.LatencyPS)
		if errors.Is(req.ctx.Err(), context.DeadlineExceeded) {
			s.met.deadlineMidBatch.Inc()
		}
		req.resp <- response{out: outs[0], cost: cost}
	}
}
