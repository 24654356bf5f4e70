// Package metrics implements the load-information substrate from Section
// IV.C of the paper: "Load information management is required before any
// action is undertaken. It assumes measuring latencies and bandwidth of each
// stream, as well as usage of individual and aggregate resources."
//
// It provides counters, gauges, log-bucketed histograms, and windowed rates,
// collected in a Registry that resource managers snapshot to drive load
// balancing, pinning, and closed-loop SLA control.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative; negative deltas are ignored so
// the counter stays monotone.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed number of log-spaced (power-of-two) buckets.
const histBuckets = 64

// Histogram records observations into fixed logarithmic buckets (powers of
// two) and supports quantile estimation. Construct with NewHistogram.
//
// Histogram is lock-free: Observe touches only atomic bucket counters and
// CAS-updated scalar cells, so the request hot path in internal/serve can
// record per-request latency from many goroutines without contending on a
// mutex. Readers (Quantile, Mean, Snapshot, ...) load the atomics without
// stopping writers; a read concurrent with writes sees some consistent
// recent history plus possibly a subset of in-flight observations, which is
// the usual monitoring-system contract.
type Histogram struct {
	buckets [histBuckets]atomic.Int64 // buckets[i] counts values in [2^(i-1), 2^i)
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	minBits atomic.Uint64 // float64 bits of the running min (+Inf when empty)
	maxBits atomic.Uint64 // float64 bits of the running max (-Inf when empty)
}

// NewHistogram returns an empty histogram covering values up to 2^62.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Non-positive values land in bucket 0.
// Observe is lock-free and safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketFor(v)].Add(1)
	casAddFloat(&h.sumBits, v)
	casMinFloat(&h.minBits, v)
	casMaxFloat(&h.maxBits, v)
	h.count.Add(1)
}

// casAddFloat atomically adds delta to the float64 stored as bits in cell.
func casAddFloat(cell *atomic.Uint64, delta float64) {
	for {
		old := cell.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

// casMinFloat atomically lowers the float64 stored in cell to v if v is
// smaller.
func casMinFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casMaxFloat atomically raises the float64 stored in cell to v if v is
// larger.
func casMaxFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func bucketFor(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log2(v)) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketUpperEdge returns the exclusive upper edge of bucket i: values in
// bucket i satisfy BucketUpperEdge(i-1) <= v < BucketUpperEdge(i), with
// bucket 0 holding everything below 1.
func BucketUpperEdge(i int) float64 {
	if i <= 0 {
		return 1
	}
	return math.Pow(2, float64(i))
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, cheap
// to take and safe to hold while the live histogram keeps absorbing
// observations. All quantile math happens on snapshots so that concurrent
// Observes cannot move the distribution mid-walk.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Min     float64 // 0 when Count == 0
	Max     float64 // 0 when Count == 0
	Buckets [histBuckets]int64
}

// Snapshot copies the current bucket counts and scalar cells. Concurrent
// with writers the copy is approximate (an in-flight Observe may appear in
// the buckets but not yet in Count, or vice versa); quiescent it is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Min:   math.Float64frombits(h.minBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1)
// using bucket upper edges, clamped into [Min, Max] so the log₂ bucket
// granularity can never report a quantile outside the observed range.
// Degenerate distributions short-circuit: an empty snapshot returns 0, and
// a single observation (or any all-equal stream, where Min == Max) returns
// that value exactly for every q instead of interpolating empty buckets.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if s.Min == s.Max {
		return s.Min
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Quantile over the bucket copy, not Count: concurrent snapshots can
	// catch count ahead of the bucket increments, and the walk must use a
	// self-consistent total.
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			// The last bucket is the overflow bucket — it holds everything
			// from 2^62 up, so its nominal edge can sit below the largest
			// observation. Max is the only honest upper bound there.
			if i == histBuckets-1 {
				return s.Max
			}
			return s.clamp(BucketUpperEdge(i))
		}
	}
	return s.Max
}

// clamp bounds a bucket-edge estimate into the observed [Min, Max] range.
func (s HistogramSnapshot) clamp(v float64) float64 {
	if v < s.Min {
		return s.Min
	}
	if v > s.Max {
		return s.Max
	}
	return v
}

// Rate tracks a quantity accumulated over simulated time, reporting units
// per second of virtual time. It exists because the simulators have no wall
// clock: callers explicitly advance time.
type Rate struct {
	mu       sync.Mutex
	totalQty float64
	totalPS  int64
}

// Record adds qty transferred over elapsedPS picoseconds of virtual time.
func (r *Rate) Record(qty float64, elapsedPS int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.totalQty += qty
	r.totalPS += elapsedPS
}

// PerSecond returns the average rate in units per virtual second.
func (r *Rate) PerSecond() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.totalPS == 0 {
		return 0
	}
	return r.totalQty / (float64(r.totalPS) * 1e-12)
}

// Kind identifies the metric type a name is interned as. A Registry holds
// one namespace across all kinds: the first accessor to use a name fixes
// its kind, and re-requesting the same name as a different kind panics —
// a silent counter/gauge split under one name is a telemetry bug, not a
// recoverable condition.
type Kind uint8

// Metric kinds, in Snapshot/exposition order.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	KindRate
)

// String names the kind for error messages and exposition.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindRate:
		return "rate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// entry is one interned metric: its fixed kind plus the live instrument.
type entry struct {
	kind Kind
	m    any
}

// Registry is a single named namespace of metrics. Accessors intern: the
// first call for a name creates the instrument, later calls return the
// same handle, and a name can only ever hold one kind (conflicts panic).
//
// Handles are the intended hot-path interface: call Counter/Gauge/
// Histogram/Rate once at setup, hold the typed handle, and touch only its
// lock-free atomics per event. The registry mutex guards interning and
// Snapshot only — never a recorded observation.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]entry)}
}

// intern returns the instrument registered under name, creating it with
// mk on first use. It panics if name is already interned as another kind.
func (r *Registry) intern(name string, k Kind, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("metrics: %q already registered as %s, requested as %s", name, e.kind, k))
		}
		return e.m
	}
	m := mk()
	r.metrics[name] = entry{kind: k, m: m}
	return m
}

// Counter returns the named counter handle, interning it on first use.
// Panics if name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	return r.intern(name, KindCounter, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the named gauge handle, interning it on first use.
// Panics if name is already registered as a different kind.
func (r *Registry) Gauge(name string) *Gauge {
	return r.intern(name, KindGauge, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the named histogram handle, interning it on first use.
// Panics if name is already registered as a different kind.
func (r *Registry) Histogram(name string) *Histogram {
	return r.intern(name, KindHistogram, func() any { return NewHistogram() }).(*Histogram)
}

// Rate returns the named rate handle, interning it on first use.
// Panics if name is already registered as a different kind.
func (r *Registry) Rate(name string) *Rate {
	return r.intern(name, KindRate, func() any { return &Rate{} }).(*Rate)
}

// Snapshot is a point-in-time copy of every metric in the registry. The
// name set is read in one pass under the registry lock, so a snapshot is
// self-consistent: every interned metric appears in exactly one map, and
// a metric interned mid-snapshot is either fully present or fully absent
// — never half-read. Histogram snapshots carry the full bucket state
// (min/max/quantiles); the mean is a method on HistogramSnapshot, not a
// separate parallel map that could drift from it.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Rates    map[string]float64 // units per virtual second
	// Histograms carries the full per-histogram snapshot (buckets,
	// min/max, quantiles) — the serving benchmark reports p50/p95/p99
	// from here and means via HistogramSnapshot.Mean.
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies all current values in one pass under the registry lock.
// Individual instruments are still written lock-free while the snapshot
// runs; each value read is that instrument's usual monitoring-consistency
// read.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Rates:      make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, e := range r.metrics {
		switch e.kind {
		case KindCounter:
			s.Counters[name] = e.m.(*Counter).Value()
		case KindGauge:
			s.Gauges[name] = e.m.(*Gauge).Value()
		case KindHistogram:
			s.Histograms[name] = e.m.(*Histogram).Snapshot()
		case KindRate:
			s.Rates[name] = e.m.(*Rate).PerSecond()
		}
	}
	return s
}

// String renders the snapshot sorted by metric name for stable output.
func (s Snapshot) String() string {
	var b strings.Builder
	writeSorted := func(prefix string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s = %g\n", prefix, k, m[k])
		}
	}
	ckeys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for _, k := range ckeys {
		fmt.Fprintf(&b, "counter %s = %d\n", k, s.Counters[k])
	}
	writeSorted("gauge", s.Gauges)
	hkeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "hist %s = count %d mean %g p99 %g\n", k, h.Count, h.Mean(), h.Quantile(0.99))
	}
	writeSorted("rate", s.Rates)
	return b.String()
}
