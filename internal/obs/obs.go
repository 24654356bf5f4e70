// Package obs is the observability substrate for the simulators: a
// span-based tracer that records both wall-clock time and *simulated*
// time/energy per operation.
//
// The paper's Section VI claims (DPE latency/bandwidth/power 10–10⁶× over
// CPUs/GPUs) are order-of-magnitude aggregates. Eva-CiM (PAPERS.md) argues
// that CiM evaluation is only credible with system-level, per-component
// energy/latency attribution — you have to see *where* the simulated
// nanojoules and nanoseconds go, per micro-unit → unit → tile → fabric
// stage. This package provides that view without perturbing the thing it
// measures:
//
//   - Every span carries the energy.Cost the traced operation returned, so
//     attribution is exact: the simulated cost algebra is the source of
//     truth, not a sampling profiler.
//   - Tracing is threaded through the stack as an explicit obs.Ctx value
//     (crossbar MVM/Program, dpe InferBatch/Load/Repair, serve flushes and
//     shadow swaps, experiment sweeps). A zero Ctx means "not tracing" and
//     every operation on it is a nil-check no-op — the hot MVM path pays a
//     couple of predictable branches and zero allocations when tracing is
//     off (see BenchmarkCrossbarMVMTracingOff and docs/OBSERVABILITY.md
//     for the overhead budget).
//   - The enable flag is atomic, so a long-lived Tracer can be toggled
//     while the serving pipeline runs; completed-span records come from a
//     sync.Pool, so repeated trace sessions reuse their buffers.
//
// Exporters live in export.go: Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto, `cimbench -trace out.json`) and an
// aggregated per-stage cost-attribution table (`cimbench -attr`).
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/energy"
)

// DefaultSpanLimit bounds how many completed spans a Tracer retains. Past
// the limit, spans are dropped (counted, never silently) so a forgotten
// enabled tracer cannot grow without bound under production load.
const DefaultSpanLimit = 1 << 21

// Note is one numeric annotation on a span (batch size, pulse count, ...).
// Annotations are numeric on purpose: they land in the Chrome trace args
// and in attribution without any formatting on the record path.
type Note struct {
	Key string
	Val float64
}

// span is the mutable in-flight record; it cycles through the tracer's
// pool. The exported value type is Span.
type span struct {
	id, parent uint64
	name       string
	startNS    int64
	endNS      int64
	notes      []Note
}

// Span is one completed, immutable trace record.
type Span struct {
	// ID is unique within the tracer; Parent is the enclosing span's ID,
	// 0 for root spans.
	ID, Parent uint64
	// Name identifies the operation, dotted by layer: "xbar.mvm",
	// "dpe.infer_batch", "serve.flush". The prefix before the first dot is
	// the category exporters group by.
	Name string
	// StartNS / EndNS are wall-clock nanoseconds since the tracer epoch.
	StartNS, EndNS int64
	// Cost is the simulated cost the traced operation reported — inclusive
	// of child spans, exactly as the cost algebra composed it.
	Cost energy.Cost
	// Notes are numeric annotations (batch size, retry pulses, ...).
	Notes []Note
}

// Category returns the span name's layer prefix ("xbar" for "xbar.mvm").
func (s Span) Category() string {
	for i := 0; i < len(s.Name); i++ {
		if s.Name[i] == '.' {
			return s.Name[:i]
		}
	}
	return s.Name
}

// Tracer collects spans. The zero value and nil are both valid "tracing
// off" tracers: every method is nil-safe, and Root on a disabled tracer
// returns the zero Ctx, which turns the whole downstream span tree into
// no-ops. Construct with New (enabled); Disable turns recording off.
//
// Recording is safe for concurrent use: the parallel worker pool retires
// spans from many goroutines.
type Tracer struct {
	on      atomic.Bool
	epoch   time.Time
	ids     atomic.Uint64
	limit   int
	dropped atomic.Int64

	pool sync.Pool // *span — completed-span records recycle through here

	mu   sync.Mutex
	done []Span // completed spans in retirement (End) order
}

// New returns an enabled tracer with the default span limit.
func New() *Tracer {
	t := &Tracer{epoch: time.Now(), limit: DefaultSpanLimit}
	t.on.Store(true)
	return t
}

// Disable turns recording off. In-flight spans still retire (their parents
// are already committed to the tree); new Root calls become no-ops.
func (t *Tracer) Disable() { t.on.Store(false) }

// Enabled reports whether the tracer records. Nil-safe: a nil tracer is
// permanently disabled — this is the fast path the hot kernels branch on.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Root opens a top-level span. On a nil or disabled tracer it returns the
// zero Ctx and allocates nothing.
func (t *Tracer) Root(name string) Ctx {
	if !t.Enabled() {
		return Ctx{}
	}
	return Ctx{t: t, sp: t.begin(0, name)}
}

// begin acquires a pooled span record and stamps its start.
func (t *Tracer) begin(parent uint64, name string) *span {
	sp, _ := t.pool.Get().(*span)
	if sp == nil {
		sp = &span{}
	}
	sp.id = t.ids.Add(1)
	sp.parent = parent
	sp.name = name
	sp.startNS = int64(time.Since(t.epoch))
	sp.endNS = 0
	sp.notes = sp.notes[:0]
	return sp
}

// retire commits a finished span to the done list (or drops it past the
// limit) and recycles the record.
func (t *Tracer) retire(sp *span, cost energy.Cost) {
	sp.endNS = int64(time.Since(t.epoch))
	t.mu.Lock()
	if len(t.done) >= t.limit {
		t.mu.Unlock()
		t.dropped.Add(1)
		t.pool.Put(sp)
		return
	}
	t.done = append(t.done, Span{
		ID:      sp.id,
		Parent:  sp.parent,
		Name:    sp.name,
		StartNS: sp.startNS,
		EndNS:   sp.endNS,
		Cost:    cost,
		Notes:   append([]Note(nil), sp.notes...),
	})
	t.mu.Unlock()
	t.pool.Put(sp)
}

// Len returns the number of retained completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Dropped returns how many spans the limit discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Snapshot copies the completed spans in retirement order. Children End
// before their parents, so a child always precedes its parent here; root
// spans of a serial driver appear in call order.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.done...)
}

// Ctx is a handle on one open span, threaded by value through the stack.
// The zero Ctx is "not tracing": Child returns another zero Ctx, End and
// Annotate are no-ops, and nothing allocates — this is what makes tracing
// near-free when disabled without if-guards at every call site.
type Ctx struct {
	t  *Tracer
	sp *span
}

// Active reports whether the context records into a tracer.
func (c Ctx) Active() bool { return c.sp != nil }

// Child opens a nested span. On a zero Ctx it returns the zero Ctx.
func (c Ctx) Child(name string) Ctx {
	if c.sp == nil {
		return Ctx{}
	}
	return Ctx{t: c.t, sp: c.t.begin(c.sp.id, name)}
}

// Annotate attaches a numeric note to the span. No-op on a zero Ctx.
func (c Ctx) Annotate(key string, v float64) {
	if c.sp == nil {
		return
	}
	c.sp.notes = append(c.sp.notes, Note{Key: key, Val: v})
}

// End closes the span, attributing the simulated cost the operation
// reported. Every Begin/Child must be paired with exactly one End; End on
// a zero Ctx is a no-op. After End the Ctx must not be reused.
func (c Ctx) End(cost energy.Cost) {
	if c.sp == nil {
		return
	}
	c.t.retire(c.sp, cost)
}

// SumRoots left-folds the costs of root spans (Parent == 0) in retirement
// order with energy.Cost.Seq — the same fold a serial driver applies to
// the per-operation costs it measures. For a trace whose roots are the
// driver's sequential operations, SumRoots is therefore bit-identical to
// the untraced run's total cost (tests and `cimbench -trace` pin this).
func SumRoots(spans []Span) energy.Cost {
	total := energy.Zero
	for _, s := range spans {
		if s.Parent == 0 {
			total = total.Seq(s.Cost)
		}
	}
	return total
}
