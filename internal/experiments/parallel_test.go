package experiments

import (
	"testing"

	"cimrev/internal/parallel"
)

// TestSecVIParallelEquivalence is the experiment-harness (E4) leg of the
// determinism contract: the full Section VI sweep — engines programmed,
// inferences run, CPU/GPU baselines evaluated — must emit bit-identical
// rows (latency, energy, and every ratio) at pool widths 1, 4, and 16.
func TestSecVIParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	sizes := []int{64, 96, 128, 160, 192}
	parallel.SetWidth(1)
	ref, err := SecVI(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) != len(sizes) {
		t.Fatalf("serial SecVI produced %d rows, want %d", len(ref.Rows), len(sizes))
	}
	for _, w := range []int{4, 16} {
		parallel.SetWidth(w)
		got, err := SecVI(sizes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(ref.Rows) {
			t.Fatalf("width %d: %d rows, want %d", w, len(got.Rows), len(ref.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i] != ref.Rows[i] {
				t.Fatalf("width %d: row %d differs:\nparallel %+v\nserial   %+v",
					w, i, got.Rows[i], ref.Rows[i])
			}
		}
		// The rendered table is a pure function of the rows, but assert it
		// anyway: this is what cimbench actually prints.
		if got.Format() != ref.Format() {
			t.Fatalf("width %d: formatted table differs from serial", w)
		}
	}
}

// TestScaleParallelEquivalence checks the E7 harness the same way: its
// rows, priced from one loaded engine per network, do not move with the
// pool width that engine's Loads run at.
func TestScaleParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	parallel.SetWidth(1)
	ref, err := Scale([]int{1, 2, 4}, 96, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 16} {
		parallel.SetWidth(w)
		got, err := Scale([]int{1, 2, 4}, 96, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Rows {
			if got.Rows[i] != ref.Rows[i] {
				t.Fatalf("width %d: scale row %d differs:\nparallel %+v\nserial   %+v",
					w, i, got.Rows[i], ref.Rows[i])
			}
		}
	}
}

// TestNoiseAblationParallelEquivalence guards the subtlest case: the sweep
// is noisy end-to-end, and since the counter-based generator keys every
// draw by position (seed, inference, stage, block, column) rather than by
// draw order, both the sweep points *and* the inferences inside each point
// fan out across the pool without changing any accuracy number.
func TestNoiseAblationParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Cleanup(func() { parallel.SetWidth(0) })

	sigmas := []float64{0, 0.02, 0.1}
	parallel.SetWidth(1)
	ref, err := NoiseAblation(sigmas)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 16} {
		parallel.SetWidth(w)
		got, err := NoiseAblation(sigmas)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Rows {
			if got.Rows[i] != ref.Rows[i] {
				t.Fatalf("width %d: noise row %d differs: parallel %+v serial %+v",
					w, i, got.Rows[i], ref.Rows[i])
			}
		}
	}
}
