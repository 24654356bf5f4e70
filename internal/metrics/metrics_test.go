package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-5)
	if got := c.Value(); got != 10 {
		t.Errorf("Value after negative Add = %d, want 10 (monotone)", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 10_000 {
		t.Errorf("Value = %d, want 10000", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4.0 {
		t.Errorf("Value = %g, want 4.0", got)
	}
	g.Add(-5)
	if got := g.Value(); got != -1.0 {
		t.Errorf("Value = %g, want -1.0", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 5000 {
		t.Errorf("Value = %g, want 5000", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Snapshot().Count != 0 || h.Snapshot().Mean() != 0 || h.Snapshot().Min != 0 || h.Snapshot().Max != 0 || h.Snapshot().Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 10} {
		h.Observe(v)
	}
	if got := h.Snapshot().Count; got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Snapshot().Mean(); got != 4 {
		t.Errorf("Mean = %g, want 4", got)
	}
	if got := h.Snapshot().Min; got != 1 {
		t.Errorf("Min = %g, want 1", got)
	}
	if got := h.Snapshot().Max; got != 10 {
		t.Errorf("Max = %g, want 10", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	// The 0.5 quantile of 1..1000 is ~500; bucket upper edge gives ≤1024 and
	// ≥256 (log2 buckets).
	q := h.Snapshot().Quantile(0.5)
	if q < 256 || q > 1024 {
		t.Errorf("Quantile(0.5) = %g, want within [256,1024]", q)
	}
	// Out-of-range q is clamped rather than panicking.
	if got := h.Snapshot().Quantile(-1); got < 1 {
		t.Errorf("Quantile(-1) = %g, want >= 1", got)
	}
	if got := h.Snapshot().Quantile(2); got < q {
		t.Errorf("Quantile(2) = %g, want >= median", got)
	}
}

// Property: quantile is monotone non-decreasing in q and bounded by
// [lowest bucket edge, max].
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(float64(r))
		}
		if h.Snapshot().Count == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := h.Snapshot().Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many goroutines
// and checks that no observation is lost: the lock-free CAS/atomic design
// must account for every Observe in count, sum, and the bucket totals.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 64, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(float64(1 + (g+j)%1024))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("Count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != goroutines*perG {
		t.Errorf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
	if s.Min != 1 {
		t.Errorf("Min = %g, want 1", s.Min)
	}
	if s.Max != 1024 {
		t.Errorf("Max = %g, want 1024", s.Max)
	}
	// Every value was an integer in [1,1024], so the sum is exact in
	// float64 and order-independent.
	var want float64
	for g := 0; g < goroutines; g++ {
		for j := 0; j < perG; j++ {
			want += float64(1 + (g+j)%1024)
		}
	}
	if s.Sum != want {
		t.Errorf("Sum = %g, want %g", s.Sum, want)
	}
}

// TestHistogramBucketBoundaries pins the log2 bucket edges: bucket i holds
// [2^(i-1), 2^i), bucket 0 holds everything below 1, and Quantile reports
// the upper edge of the covering bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram()
	// One observation exactly on each power-of-two edge 1,2,4,...,256.
	for i := 0; i <= 8; i++ {
		h.Observe(math.Pow(2, float64(i)))
	}
	s := h.Snapshot()
	for i := 0; i <= 8; i++ {
		// 2^i is the *inclusive lower* edge of bucket i+1.
		if got := s.Buckets[i+1]; got != 1 {
			t.Errorf("bucket %d = %d, want 1 (value %g)", i+1, got, math.Pow(2, float64(i)))
		}
	}
	if got := s.Buckets[0]; got != 0 {
		t.Errorf("bucket 0 = %d, want 0", got)
	}
	// Values just under an edge stay in the lower bucket.
	h2 := NewHistogram()
	h2.Observe(math.Nextafter(2, 0)) // 1.999... -> bucket 1
	s2 := h2.Snapshot()
	if s2.Buckets[1] != 1 {
		t.Errorf("1.999... in bucket 1? counts=%v", s2.Buckets[:3])
	}
	// Quantile returns upper edges, clamped to the observed range; a
	// single observation reports itself exactly (min == max fast path).
	h3 := NewHistogram()
	h3.Observe(3) // bucket 2: [2,4)
	if got := h3.Snapshot().Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) of {3} = %g, want 3 (single observation)", got)
	}
	h4 := NewHistogram()
	h4.Observe(3)
	h4.Observe(3.5) // same bucket [2,4): edge 4 clamps to max 3.5
	if got := h4.Snapshot().Quantile(0.99); got != 3.5 {
		t.Errorf("Quantile(0.99) of {3,3.5} = %g, want clamp to max 3.5", got)
	}
	if got := BucketUpperEdge(0); got != 1 {
		t.Errorf("BucketUpperEdge(0) = %g, want 1", got)
	}
}

func TestHistogramSnapshotIndependent(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	s := h.Snapshot()
	h.Observe(500)
	if s.Count != 1 || s.Max != 5 {
		t.Errorf("snapshot mutated by later observes: %+v", s)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("snapshot Quantile(1) = %g, want 5 (single observation)", got)
	}
	if h.Snapshot().Count != 2 {
		t.Errorf("live count = %d, want 2", h.Snapshot().Count)
	}
}

func TestBucketFor(t *testing.T) {
	tests := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 1}, {1.9, 1}, {2, 2}, {3.9, 2}, {4, 3}, {1e300, 63},
	}
	for _, tt := range tests {
		if got := bucketFor(tt.v); got != tt.want {
			t.Errorf("bucketFor(%g) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestRate(t *testing.T) {
	var r Rate
	// 1000 bytes over 1 microsecond = 1e9 bytes/s.
	r.Record(1000, 1_000_000)
	if got := r.PerSecond(); math.Abs(got-1e9) > 1 {
		t.Errorf("PerSecond = %g, want 1e9", got)
	}
}

func TestRateEmpty(t *testing.T) {
	var r Rate
	if got := r.PerSecond(); got != 0 {
		t.Errorf("empty rate = %g, want 0", got)
	}
}

func TestRegistryCreatesOnFirstUse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hits")
	c1.Inc()
	c2 := r.Counter("hits")
	if c1 != c2 {
		t.Error("Counter must return the same instance for the same name")
	}
	if got := c2.Value(); got != 1 {
		t.Errorf("Value = %d, want 1", got)
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge identity")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram identity")
	}
	if r.Rate("r") != r.Rate("r") {
		t.Error("Rate identity")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts").Add(7)
	r.Gauge("load").Set(0.5)
	r.Histogram("lat").Observe(10)
	r.Histogram("lat").Observe(20)
	r.Rate("bw").Record(100, 1_000_000_000_000) // 100 units over 1s

	s := r.Snapshot()
	if s.Counters["pkts"] != 7 {
		t.Errorf("snapshot counter = %d, want 7", s.Counters["pkts"])
	}
	if s.Gauges["load"] != 0.5 {
		t.Errorf("snapshot gauge = %g, want 0.5", s.Gauges["load"])
	}
	if got := s.Histograms["lat"].Mean(); got != 15 {
		t.Errorf("snapshot hist mean = %g, want 15", got)
	}
	if math.Abs(s.Rates["bw"]-100) > 1e-9 {
		t.Errorf("snapshot rate = %g, want 100", s.Rates["bw"])
	}
}

func TestSnapshotStringStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	s := r.Snapshot().String()
	if !strings.Contains(s, "counter a = 1") || !strings.Contains(s, "counter b = 1") {
		t.Errorf("snapshot string missing counters:\n%s", s)
	}
	if strings.Index(s, "counter a") > strings.Index(s, "counter b") {
		t.Errorf("snapshot string not sorted:\n%s", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("shared").Inc()
			r.Histogram("h").Observe(1)
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 32 {
		t.Errorf("shared counter = %d, want 32", got)
	}
}

// Property: counter value equals the sum of non-negative deltas regardless
// of interleaving with ignored negatives.
func TestCounterSumProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		var c Counter
		var want int64
		for _, d := range deltas {
			c.Add(int64(d))
			if d >= 0 {
				want += int64(d)
			}
		}
		return c.Value() == want
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		n := r.Intn(50)
		ds := make([]int16, n)
		for i := range ds {
			ds[i] = int16(r.Intn(2000) - 500)
		}
		vals[0] = reflect.ValueOf(ds)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
