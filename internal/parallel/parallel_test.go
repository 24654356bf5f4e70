package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// resetWidth restores the default width after a test that changes it.
func resetWidth(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { SetWidth(0) })
}

func TestWidthDefaultsToGOMAXPROCS(t *testing.T) {
	resetWidth(t)
	SetWidth(0)
	if got, want := Width(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Width() = %d, want GOMAXPROCS %d", got, want)
	}
	SetWidth(7)
	if got := Width(); got != 7 {
		t.Fatalf("Width() = %d after SetWidth(7)", got)
	}
	SetWidth(-3)
	if got, want := Width(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Width() = %d after reset, want %d", got, want)
	}
}

func TestSequentialMode(t *testing.T) {
	resetWidth(t)
	SetWidth(1)
	if !Sequential() {
		t.Fatal("Sequential() = false at width 1")
	}
	// Sequential mode must execute inline and in ascending index order:
	// appending to a plain slice is race-free only if it does.
	var order []int
	For(100, func(i int) { order = append(order, i) })
	if len(order) != 100 {
		t.Fatalf("len(order) = %d, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want ascending in-order execution", i, v)
		}
	}
}

func TestForCoversAllIndicesAtEveryWidth(t *testing.T) {
	resetWidth(t)
	for _, w := range []int{1, 2, 4, 16, 64} {
		SetWidth(w)
		const n = 1000
		var hits [n]atomic.Int32
		For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("width %d: index %d executed %d times", w, i, got)
			}
		}
	}
}

func TestForWidthOverride(t *testing.T) {
	resetWidth(t)
	SetWidth(16)
	var calls int
	// Explicit width 1 must run inline even though the global width is 16.
	ForWidth(1, 50, func(i int) { calls++ })
	if calls != 50 {
		t.Fatalf("calls = %d, want 50", calls)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	resetWidth(t)
	ran := false
	For(0, func(int) { ran = true })
	For(-5, func(int) { ran = true })
	if ran {
		t.Fatal("For ran work for n <= 0")
	}
}

func TestMapOrdering(t *testing.T) {
	resetWidth(t)
	for _, w := range []int{1, 4, 16} {
		SetWidth(w)
		got := Map(257, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("width %d: Map[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	resetWidth(t)
	for _, w := range []int{1, 4, 16} {
		SetWidth(w)
		err := ForErr(100, func(i int) error {
			if i == 37 || i == 80 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at 37" {
			t.Fatalf("width %d: ForErr = %v, want boom at 37", w, err)
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	resetWidth(t)
	SetWidth(8)
	if err := ForErr(64, func(int) error { return nil }); err != nil {
		t.Fatalf("ForErr = %v, want nil", err)
	}
}

func TestMapErr(t *testing.T) {
	resetWidth(t)
	SetWidth(4)
	out, err := MapErr(10, func(i int) (string, error) {
		return fmt.Sprintf("v%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := fmt.Sprintf("v%d", i); v != want {
			t.Fatalf("MapErr[%d] = %q, want %q", i, v, want)
		}
	}
	sentinel := errors.New("nope")
	if _, err := MapErr(10, func(i int) (int, error) {
		if i >= 5 {
			return 0, sentinel
		}
		return i, nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("MapErr error = %v, want sentinel", err)
	}
}

func TestForPanicPropagates(t *testing.T) {
	resetWidth(t)
	for _, w := range []int{1, 8} {
		SetWidth(w)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("width %d: panic did not propagate", w)
				}
			}()
			For(32, func(i int) {
				if i == 9 {
					panic("kaboom")
				}
			})
		}()
	}
}

func TestDeterministicFloatReduction(t *testing.T) {
	resetWidth(t)
	// The central contract: compute in parallel, reduce by index. The
	// reduced float sum must be bit-identical across widths.
	sumAt := func(w int) float64 {
		SetWidth(w)
		vals := Map(501, func(i int) float64 { return 1.0 / float64(i+3) })
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	}
	ref := sumAt(1)
	for _, w := range []int{4, 16} {
		if got := sumAt(w); got != ref {
			t.Fatalf("width %d sum %v != width 1 sum %v", w, got, ref)
		}
	}
}

// TestWidthFor is the work rule's table: at the default width a call below
// fanOutMACs runs on one worker and one at or above it gets GOMAXPROCS; an
// explicitly set width is returned as set, whatever the work.
func TestWidthFor(t *testing.T) {
	resetWidth(t)
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		set, macs, want int
	}{
		{0, 0, 1},
		{0, fanOutMACs - 1, 1},
		{0, fanOutMACs, procs},
		{0, 4 * fanOutMACs, procs},
		{1, 4 * fanOutMACs, 1},
		{2, 0, 2},
		{4, fanOutMACs - 1, 4},
		{4, fanOutMACs, 4},
		{16, 4 * fanOutMACs, 16},
	} {
		SetWidth(tc.set)
		if got := WidthFor(tc.macs); got != tc.want {
			t.Errorf("SetWidth(%d): WidthFor(%d) = %d, want %d", tc.set, tc.macs, got, tc.want)
		}
	}
}
