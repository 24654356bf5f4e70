package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
)

func randomMatrix(rng *rand.Rand, m, n int) [][]float64 {
	w := make([][]float64, m)
	for r := range w {
		w[r] = make([]float64, n)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func TestTileSingleBlockMatchesCrossbar(t *testing.T) {
	cfg := smallConfig()
	tile, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	w := randomMatrix(rng, 8, 8)
	input := randomVector(rng, 8)

	if _, err := tile.Program(w); err != nil {
		t.Fatal(err)
	}
	if br, bc := tile.BlockGrid(); br != 1 || bc != 1 {
		t.Fatalf("block grid = %dx%d, want 1x1", br, bc)
	}

	got, _, err := tile.MVM(input, NoNoise)
	if err != nil {
		t.Fatal(err)
	}

	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	want, _, err := mvm(xb, input, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("col %d: tile %g != crossbar %g", i, got[i], want[i])
		}
	}
}

func TestTileMultiBlockAccuracy(t *testing.T) {
	cfg := smallConfig() // 16x16 arrays
	tile, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const m, n = 40, 33 // forces a 3x3 ragged block grid
	w := randomMatrix(rng, m, n)
	input := randomVector(rng, m)

	if _, err := tile.Program(w); err != nil {
		t.Fatal(err)
	}
	if br, bc := tile.BlockGrid(); br != 3 || bc != 3 {
		t.Fatalf("block grid = %dx%d, want 3x3", br, bc)
	}
	if tile.CrossbarCount() != 9 {
		t.Fatalf("CrossbarCount = %d, want 9", tile.CrossbarCount())
	}

	got, _, err := tile.MVM(input, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (&Crossbar{}).IdealMVM(w, input)
	if err != nil {
		t.Fatal(err)
	}
	// Per-block scaling keeps the quantization error proportional to block
	// magnitudes; allow 5% of the accumulated scale.
	budget := 0.05 * float64(m)
	for c := range ref {
		if math.Abs(got[c]-ref[c]) > budget {
			t.Errorf("col %d: tile %g vs ideal %g (budget %g)", c, got[c], ref[c], budget)
		}
	}
}

func TestTileShape(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := tile.Program(randomMatrix(rng, 20, 5)); err != nil {
		t.Fatal(err)
	}
	out, _, err := tile.MVM(randomVector(rng, 20), NoNoise)
	if err != nil || len(out) != 5 {
		t.Errorf("20x5 tile: MVM of 20 inputs gave %d outputs, %v; want 5", len(out), err)
	}
}

func TestTileErrors(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tile.Program(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := tile.Program([][]float64{{}}); err == nil {
		t.Error("empty rows should fail")
	}
	if _, err := tile.Program([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, _, err := tile.MVM([]float64{1}, NoNoise); err == nil {
		t.Error("MVM before Program should fail")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := tile.Program(randomMatrix(rng, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tile.MVM([]float64{1, 2}, NoNoise); err == nil {
		t.Error("wrong input length should fail")
	}
}

func TestTileParallelBlockLatency(t *testing.T) {
	// A 2x-taller matrix uses 2x the crossbars but (blocks being parallel)
	// must NOT take 2x the MVM latency.
	cfg := smallConfig()
	rng := rand.New(rand.NewSource(5))

	lat := func(rows int) int64 {
		tile, err := NewTile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tile.Program(randomMatrix(rng, rows, 16)); err != nil {
			t.Fatal(err)
		}
		_, c, err := tile.MVM(randomVector(rng, rows), NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		return c.LatencyPS
	}

	l16, l64 := lat(16), lat(64)
	if l64 > 2*l16 {
		t.Errorf("64-row MVM latency %d should be < 2x 16-row latency %d (parallel blocks)", l64, l16)
	}
}

func TestTileEnergyScalesWithBlocks(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewSource(5))

	eng := func(rows int) float64 {
		tile, err := NewTile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tile.Program(randomMatrix(rng, rows, 16)); err != nil {
			t.Fatal(err)
		}
		_, c, err := tile.MVM(randomVector(rng, rows), NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		return c.EnergyPJ
	}

	if e64, e16 := eng(64), eng(16); e64 < 2*e16 {
		t.Errorf("64-row MVM energy %g should be >= 2x 16-row energy %g", e64, e16)
	}
}

func TestTileWrites(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := tile.Program(randomMatrix(rng, 32, 16)); err != nil {
		t.Fatal(err)
	}
	want := int64(32*16) * int64(tile.cfg.slices())
	if got := tile.Writes(); got != want {
		t.Errorf("Writes = %d, want %d", got, want)
	}
}

func TestTileWearAccumulatesAcrossReprograms(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	w := randomMatrix(rng, 8, 8)
	if _, err := tile.Program(w); err != nil {
		t.Fatal(err)
	}
	once := tile.Writes()
	for i := 0; i < 4; i++ {
		if _, err := tile.Program(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := tile.Writes(); got != 5*once {
		t.Errorf("writes after 5 programs = %d, want %d", got, 5*once)
	}
}

func TestTileWearSurvivesReshape(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := tile.Program(randomMatrix(rng, 8, 8)); err != nil {
		t.Fatal(err)
	}
	before := tile.Writes()
	// Reshape retires the old arrays but keeps their wear on the books.
	if _, err := tile.Program(randomMatrix(rng, 4, 4)); err != nil {
		t.Fatal(err)
	}
	after := tile.Writes()
	if after <= before {
		t.Errorf("reshape lost wear history: %d -> %d", before, after)
	}
}

// TestTileWearExactAcrossReshape pins the wear bookkeeping to the cell: a
// reshape retires the old arrays into pastWrites and the new shape adds
// exactly cells*slices fresh writes — no wear is double-counted and none
// evaporates, in either direction (shrink then regrow).
func TestTileWearExactAcrossReshape(t *testing.T) {
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	slices := int64(tile.cfg.slices())
	rng := rand.New(rand.NewSource(6))

	if _, err := tile.Program(randomMatrix(rng, 8, 8)); err != nil {
		t.Fatal(err)
	}
	w1 := tile.Writes()
	if want := int64(8*8) * slices; w1 != want {
		t.Fatalf("writes after first program = %d, want %d", w1, want)
	}

	// Shrink: old 8x8 arrays retire, fresh 4x4 arrays are written.
	if _, err := tile.Program(randomMatrix(rng, 4, 4)); err != nil {
		t.Fatal(err)
	}
	w2 := tile.Writes()
	if want := w1 + int64(4*4)*slices; w2 != want {
		t.Fatalf("writes after shrink = %d, want %d", w2, want)
	}

	// Regrow: wear from both retired generations stays on the books.
	if _, err := tile.Program(randomMatrix(rng, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if got, want := tile.Writes(), w2+int64(8*8)*slices; got != want {
		t.Fatalf("writes after regrow = %d, want %d", got, want)
	}
}

// TestTileWearSurvivesReshapeWithFaults runs the same retire-and-regrow
// cycle with fault injection active: retry pulses from program-and-verify
// are real wear, so lifetime Writes must stay strictly monotone across a
// reshape and exceed the fault-free count for the same shapes.
func TestTileWearSurvivesReshapeWithFaults(t *testing.T) {
	cfg := smallConfig()
	tile, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tile.SetFaults(faultinject.Model{WriteFailRate: 0.3, Seed: 9}, noise.NewSource(9)); err != nil {
		t.Fatal(err)
	}
	clean, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(6))
	w := randomMatrix(rng, 8, 8)
	if _, err := tile.Program(w); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Program(w); err != nil {
		t.Fatal(err)
	}
	faulty := tile.Writes()
	if faulty <= clean.Writes() {
		t.Fatalf("faulty writes %d not above clean %d: retry pulses uncounted", faulty, clean.Writes())
	}

	// Reshape under faults: retired wear (including retries) is preserved.
	if _, err := tile.Program(randomMatrix(rng, 4, 4)); err != nil {
		t.Fatal(err)
	}
	after := tile.Writes()
	if after <= faulty {
		t.Fatalf("reshape lost retry wear: %d -> %d", faulty, after)
	}
	if min := faulty + int64(4*4)*int64(cfg.slices()); after < min {
		t.Fatalf("writes after faulty reshape = %d, want >= %d", after, min)
	}
}

func TestTileReprogramKeepsResults(t *testing.T) {
	// Reused arrays must compute with the new weights, not stale ones.
	tile, err := NewTile(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w1 := [][]float64{{1, 0}, {0, 1}}
	w2 := [][]float64{{0, 1}, {1, 0}}
	if _, err := tile.Program(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := tile.Program(w2); err != nil {
		t.Fatal(err)
	}
	out, _, err := tile.MVM([]float64{1, 0}, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]) > 0.1 || math.Abs(out[1]-1) > 0.1 {
		t.Errorf("reprogrammed MVM = %v, want ~[0 1]", out)
	}
}

// TestTileRejectedWriteWritesNothing: a matrix with a non-finite weight in
// its last block is rejected before any block is written — also when it
// would reshape the grid — so the tile keeps serving the matrix it held,
// through either entry, with == outputs, the same wear and the same grid.
func TestTileRejectedWriteWritesNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.Rows, cfg.Cols = 4, 4
	rng := rand.New(rand.NewSource(40))
	for _, same := range []bool{false, true} {
		tile, err := NewTile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tile.Program(randomMatrix(rng, 6, 6)); err != nil {
			t.Fatal(err)
		}
		input := randomVector(rng, 6)
		want, _, err := tile.MVM(input, NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		writes := tile.Writes()
		n := 9 // a 3×3 grid: block (2,2) is the last one written
		if same {
			n = 6
		}
		bad := randomMatrix(rng, n, n)
		bad[n-1][n-1] = math.Inf(1)
		if _, err := tile.Program(bad); err == nil {
			t.Fatalf("n=%d: Program accepted an Inf weight", n)
		}
		if _, err := tile.Check(columnsOf(bad)); err == nil {
			t.Fatalf("n=%d: Check accepted an Inf weight", n)
		}
		got, _, err := tile.MVM(input, NoNoise)
		if err != nil {
			t.Fatalf("n=%d: MVM after a rejected write: %v", n, err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("n=%d: output %d = %v after a rejected write, %v before", n, c, got[c], want[c])
			}
		}
		if br, bc := tile.BlockGrid(); br != 2 || bc != 2 || tile.Writes() != writes {
			t.Fatalf("n=%d: a rejected write left a %dx%d grid and %d writes, want 2x2 and %d", n, br, bc, tile.Writes(), writes)
		}
	}
}
