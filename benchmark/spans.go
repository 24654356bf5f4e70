package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/fleet"
	"cimrev/internal/hybrid"
	"cimrev/internal/metrics"
	"cimrev/internal/obs"
	"cimrev/internal/serve"
)

// flushSpan is one device batch as the engine's backend saw it: which
// engine, when, how many items and under which noise keys. The keys join
// a flush to the client spans of the requests it served.
type flushSpan struct {
	engine     int
	start, end time.Time
	seqs       []uint64
	n          int
}

// flushRecorder collects the backend spans of one traced phase in memory.
type flushRecorder struct {
	mu    sync.Mutex
	spans []flushSpan
}

func (r *flushRecorder) add(s flushSpan) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap is the fleet.WithWrapBackend hook: every engine's backend is
// replaced by a spanBackend around it.
func (r *flushRecorder) wrap() fleet.Option {
	return fleet.WithWrapBackend(func(id int, b serve.Backend, _ *metrics.Registry) serve.Backend {
		inner, ok := b.(hybrid.CIMBackend)
		if !ok {
			return b
		}
		return &spanBackend{id: id, inner: inner, rec: r}
	})
}

// spanBackend times every flush on its way to the engine. It forwards all
// three entry points: a wrapper with InferBatch alone would still satisfy
// serve.Backend, and the server would then silently serve keyed requests
// through the unkeyed path — wrong noise on any noisy configuration.
type spanBackend struct {
	id    int
	inner hybrid.CIMBackend
	rec   *flushRecorder
}

func (s *spanBackend) record(start time.Time, seqs []uint64, n int) {
	s.rec.add(flushSpan{engine: s.id, start: start, end: time.Now(), seqs: seqs, n: n})
}

func (s *spanBackend) InferBatch(inputs [][]float64) ([][]float64, energy.Cost, error) {
	defer s.record(time.Now(), nil, len(inputs))
	return s.inner.InferBatch(inputs)
}

func (s *spanBackend) InferBatchCtx(pc obs.Ctx, inputs [][]float64) ([][]float64, energy.Cost, error) {
	defer s.record(time.Now(), nil, len(inputs))
	return s.inner.InferBatchCtx(pc, inputs)
}

func (s *spanBackend) InferBatchKeyedCtx(pc obs.Ctx, seqs []uint64, inputs [][]float64) ([][]float64, energy.Cost, error) {
	defer s.record(time.Now(), seqs, len(inputs))
	return s.inner.InferBatchKeyedCtx(pc, seqs, inputs)
}

// writeSpans writes the traced phase's spans out, once the phase is over:
// one client span per request and one backend span per flush, times in
// nanoseconds from the start of the timed phase, joined by noise key
// (element j of request seq has key seq*maxClassBatch + j).
func writeSpans(path string, p *phase, flushes []flushSpan) error {
	type client struct {
		Seq, Batch      int
		Due, Sent, Done int64
		Outcome         string
	}
	type backend struct {
		Engine, N  int
		Start, End int64
		Seqs       []uint64
	}
	var doc struct {
		Client  []client
		Backend []backend
	}
	x := p.open
	for i, r := range x.reqs {
		doc.Client = append(doc.Client, client{Seq: i, Batch: int(r.batch),
			Due: r.due.Nanoseconds(), Sent: r.sent.Nanoseconds(), Done: r.done.Nanoseconds(),
			Outcome: workloadOutcome(r.outcome)})
	}
	for _, f := range flushes {
		if len(f.seqs) > 0 && f.seqs[0] >= warmKeyBase {
			continue
		}
		doc.Backend = append(doc.Backend, backend{Engine: f.engine, N: f.n,
			Start: f.start.Sub(x.start).Nanoseconds(), End: f.end.Sub(x.start).Nanoseconds(), Seqs: f.seqs})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
