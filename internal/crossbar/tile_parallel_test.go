package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/noise"
	"cimrev/internal/parallel"
)

// equivalenceWidths are the pool widths every serial-vs-parallel test
// sweeps; width 1 is the sequential reference.
var equivalenceWidths = []int{1, 4, 16}

// tileAt programs a fresh multi-block tile and runs one MVM at the given
// pool width, returning everything the caller needs to compare runs.
func tileAt(t *testing.T, width int, sigma float64, seed int64) ([]float64, [2]int64, [2]float64) {
	t.Helper()
	parallel.SetWidth(width)

	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 32, 32 // small arrays force a multi-block grid
	cfg.Functional = sigma == 0
	cfg.ReadNoise = sigma

	rng := rand.New(rand.NewSource(seed))
	const m, n = 100, 70 // 4x3 block grid
	w := make([][]float64, m)
	for r := range w {
		w[r] = make([]float64, n)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	in := make([]float64, m)
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}

	tile, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	progCost, err := tile.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	ns := NoNoise
	if sigma > 0 {
		ns = noise.NewSource(seed + 1)
	}
	out, mvmCost, err := tile.MVM(in, ns)
	if err != nil {
		t.Fatal(err)
	}
	return out,
		[2]int64{progCost.LatencyPS, mvmCost.LatencyPS},
		[2]float64{progCost.EnergyPJ, mvmCost.EnergyPJ}
}

// TestTileParallelEquivalence is the crossbar half of the PR's determinism
// contract: tiled Program and MVM must produce bit-identical outputs and
// bit-identical energy/latency totals at pool widths 1, 4, and 16.
func TestTileParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	refOut, refLat, refEn := tileAt(t, 1, 0, 42)
	if len(refOut) != 70 {
		t.Fatalf("output length %d, want 70", len(refOut))
	}
	for _, w := range equivalenceWidths[1:] {
		out, lat, en := tileAt(t, w, 0, 42)
		if len(out) != len(refOut) {
			t.Fatalf("width %d: output length %d != %d", w, len(out), len(refOut))
		}
		for i := range out {
			if out[i] != refOut[i] {
				t.Fatalf("width %d: out[%d] = %v != serial %v", w, i, out[i], refOut[i])
			}
		}
		if lat != refLat {
			t.Fatalf("width %d: latencies %v != serial %v", w, lat, refLat)
		}
		if en != refEn {
			t.Fatalf("width %d: energies %v != serial %v", w, en, refEn)
		}
	}
}

// TestTileNoisyParallelEquivalence is the noisy half of the determinism
// contract: with counter-based noise each block draws from its own derived
// stream, so noisy MVMs fan out across the pool and still produce
// bit-identical outputs and costs at widths 1, 4, and 16. (Before the
// counter-based generator, noise forced a sequential fallback; this test
// replaced the fallback test when the fallback was deleted.)
func TestTileNoisyParallelEquivalence(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })

	// The widths are compared over draws that leave the sampler's fast
	// path: tileAt(…, 7) keys the tile with NewSource(8), so its block 0
	// (32 columns, draws 0..1023) reads NewSource(8).Derive(0), whose draw
	// 127 is a wedge rejection and draw 506 a tail draw
	// (noise.TestNormBranches names both). The tail one shows from here:
	// only the tail sampler returns a value past the last ziggurat edge.
	if z := noise.NewSource(8).Derive(0).Norm(506); math.Abs(z) <= 3.4427 {
		t.Fatalf("draw 506 of block 0 = %v is no longer a tail draw: pick the seed again", z)
	}

	refOut, refLat, refEn := tileAt(t, 1, 0.02, 7)
	for _, w := range equivalenceWidths[1:] {
		out, lat, en := tileAt(t, w, 0.02, 7)
		for i := range out {
			if out[i] != refOut[i] {
				t.Fatalf("width %d: noisy out[%d] = %v != serial %v", w, i, out[i], refOut[i])
			}
		}
		if lat != refLat || en != refEn {
			t.Fatalf("width %d: noisy costs (%v,%v) != serial (%v,%v)", w, lat, en, refLat, refEn)
		}
	}
}

// TestTileParallelWritesAccounting checks wear accounting survives the
// parallel programming path: every programmed cell is counted exactly once.
func TestTileParallelWritesAccounting(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	parallel.SetWidth(8)

	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	cfg.Functional = true
	tile, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 40, 40 // 3x3 blocks
	w := make([][]float64, m)
	for r := range w {
		w[r] = make([]float64, n)
		for c := range w[r] {
			w[r][c] = float64(r-c) / float64(m)
		}
	}
	if _, err := tile.Program(w); err != nil {
		t.Fatal(err)
	}
	want := int64(m) * int64(n) * int64(cfg.WeightBits/cfg.CellBits)
	if got := tile.Writes(); got != want {
		t.Fatalf("Writes() = %d, want %d", got, want)
	}
}
