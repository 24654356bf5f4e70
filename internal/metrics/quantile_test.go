package metrics

import (
	"math"
	"strings"
	"testing"
)

// TestQuantileEdgeCases pins the degenerate-distribution contract: empty
// histograms report 0, single observations (and all-equal streams) report
// the observed value exactly for every quantile, and bucket-edge estimates
// clamp into [Min, Max] instead of interpolating empty log2 buckets.
func TestQuantileEdgeCases(t *testing.T) {
	qs := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	tests := []struct {
		name string
		obs  []float64
		// want maps quantile -> expected value; nil means "same for all qs"
		wantAll float64
		want    map[float64]float64
	}{
		{name: "empty", obs: nil, wantAll: 0},
		{name: "single", obs: []float64{7.3}, wantAll: 7.3},
		{name: "single_subunit", obs: []float64{0.25}, wantAll: 0.25},
		{name: "single_zero", obs: []float64{0}, wantAll: 0},
		{name: "all_equal", obs: []float64{42, 42, 42, 42}, wantAll: 42},
		{
			name: "two_distinct_same_bucket",
			obs:  []float64{3, 3.5}, // both in [2,4): edge 4 clamps to max 3.5
			want: map[float64]float64{0: 3.5, 0.5: 3.5, 1: 3.5},
		},
		{
			name: "clamp_low",
			obs:  []float64{1.5, 100}, // q=0 walks to bucket [1,2): edge 2 >= min already
			want: map[float64]float64{0.5: 2, 1: 100},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range tt.obs {
				h.Observe(v)
			}
			s := h.Snapshot()
			if tt.want == nil {
				for _, q := range qs {
					if got := s.Quantile(q); got != tt.wantAll {
						t.Errorf("Quantile(%g) = %g, want %g", q, got, tt.wantAll)
					}
				}
				// Min == p50 == Max for degenerate distributions.
				if s.Count > 0 && (s.Quantile(0.5) != s.Min || s.Quantile(0.5) != s.Max) {
					t.Errorf("degenerate: min %g p50 %g max %g must be equal", s.Min, s.Quantile(0.5), s.Max)
				}
				return
			}
			for q, want := range tt.want {
				if got := s.Quantile(q); got != want {
					t.Errorf("Quantile(%g) = %g, want %g", q, got, want)
				}
			}
		})
	}
}

// TestQuantileWithinObservedRange is the general clamp property: for any
// non-empty histogram, every quantile lies in [Min, Max].
func TestQuantileWithinObservedRange(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(10 + 3*float64(i%7)) // values in [10, 28]
	}
	s := h.Snapshot()
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := s.Quantile(q)
		if got < s.Min || got > s.Max {
			t.Errorf("Quantile(%g) = %g outside [%g, %g]", q, got, s.Min, s.Max)
		}
	}
}

// TestRegistryKindConflictPanics pins the single-namespace contract: a
// name interned as one kind cannot be re-requested as another.
func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("Gauge on a counter name must panic")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "already registered as counter") {
			t.Errorf("panic = %v, want kind-conflict message", rec)
		}
	}()
	r.Gauge("x")
}

// TestSnapshotSelfConsistent checks the one-pass snapshot shape: every
// interned metric lands in exactly one map.
func TestSnapshotSelfConsistent(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(1.25)
	r.Histogram("h").Observe(8)
	r.Rate("r").Record(10, 1e12)
	s := r.Snapshot()
	if len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 || len(s.Rates) != 1 {
		t.Fatalf("snapshot shape = %d/%d/%d/%d, want 1 each",
			len(s.Counters), len(s.Gauges), len(s.Histograms), len(s.Rates))
	}
	if s.Counters["c"] != 2 || s.Gauges["g"] != 1.25 {
		t.Errorf("snapshot values wrong: %+v", s)
	}
	if hs := s.Histograms["h"]; hs.Count != 1 || hs.Mean() != 8 {
		t.Errorf("histogram snapshot = %+v", s.Histograms["h"])
	}
	if math.Abs(s.Rates["r"]-10) > 1e-9 {
		t.Errorf("rate = %g, want 10", s.Rates["r"])
	}
}

// TestQuantileOverflowBucket pins the FuzzHistogramQuantile find: values
// beyond 2^62 all land in the last (overflow) bucket, whose nominal 2^63
// edge can sit far below the largest observation. Quantiles resolving
// there must report Max — the only honest upper bound — so a tail
// estimate can never undercut an observed value.
func TestQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(1.5e-76) // bucket 0
	h.Observe(6.4e116) // overflow bucket: way past the 2^63 nominal edge
	for _, q := range []float64{0.9, 0.99, 1} {
		if got := h.Snapshot().Quantile(q); got != 6.4e116 {
			t.Errorf("Quantile(%g) = %g, want the overflow bucket's Max 6.4e116", q, got)
		}
	}
	// Values inside the penultimate bucket still interpolate normally.
	h2 := NewHistogram()
	h2.Observe(2)
	h2.Observe(1000)
	if got := h2.Snapshot().Quantile(1); got != 1000 {
		t.Errorf("in-range Quantile(1) = %g, want clamp to Max 1000", got)
	}
}
