package crossbar

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// naiveMVM is the reference the kernel is pinned to — the only other
// implementation of the analog pipeline in the repository: row-major cell
// walk, per-cell input-bit test, math.Pow shift-add scales, float64 column
// sums, with the counter-based noise source (position-keyed draws make
// loop order irrelevant, so the oracle and the kernel consume identical
// noise). Any divergence between this and MVM/MVMBatch is a kernel bug,
// not a tolerance issue: outputs must match bit for bit.
func naiveMVM(cfg Config, w [][]float64, input []float64, ns noise.Source) []float64 {
	return naiveMVMStored(cfg, w, input, ns, nil)
}

// naiveMVMStored is naiveMVM over the levels a fault-injected crossbar
// actually stored: stored[s][c*cfg.Rows+r] (the sliceT layout) replaces the
// level the quantized weight asked for, while the digital offset removal
// keeps the intended column sums, as Program does. A nil stored is the
// fault-free array.
func naiveMVMStored(cfg Config, w [][]float64, input []float64, ns noise.Source, stored [][]uint8) []float64 {
	usedRows, usedCols := len(w), len(w[0])
	slices := cfg.WeightBits / cfg.CellBits

	// Quantize weights (shift encoding), as Program does.
	wScale := 0.0
	for _, row := range w {
		for _, v := range row {
			if a := math.Abs(v); a > wScale {
				wScale = a
			}
		}
	}
	if wScale == 0 {
		wScale = 1
	}
	wMax := float64(int(1)<<cfg.WeightBits - 1)
	cellMask := 1<<cfg.CellBits - 1
	level := make([][][]int, slices) // level[s][r][c]
	for s := range level {
		level[s] = make([][]int, usedRows)
		for r := range level[s] {
			level[s][r] = make([]int, usedCols)
		}
	}
	colSum := make([]float64, usedCols)
	for r := 0; r < usedRows; r++ {
		for c := 0; c < usedCols; c++ {
			w01 := (w[r][c]/wScale + 1) / 2
			wInt := int(math.Round(w01 * wMax))
			colSum[c] += float64(wInt)
			for s := 0; s < slices; s++ {
				level[s][r][c] = (wInt >> uint(s*cfg.CellBits)) & cellMask
				if stored != nil {
					level[s][r][c] = int(stored[s][c*cfg.Rows+r])
				}
			}
		}
	}

	// Quantize input.
	xScale := 0.0
	for _, v := range input {
		if a := math.Abs(v); a > xScale {
			xScale = a
		}
	}
	if xScale == 0 {
		xScale = 1
	}
	xMax := float64(int(1)<<cfg.InputBits - 1)
	xInt := make([]int, usedRows)
	xSum := 0.0
	for i, v := range input {
		x01 := (v/xScale + 1) / 2
		xInt[i] = int(math.Round(x01 * xMax))
		xSum += float64(xInt[i])
	}

	cellMax := float64(cellMask)
	adcMaxSum := float64(usedRows) * cellMax
	adcStep := adcMaxSum / float64(int(1)<<cfg.ADCBits-1)

	acc := make([]float64, usedCols)
	if cfg.Functional {
		for c := 0; c < usedCols; c++ {
			var sum int64
			for r := 0; r < usedRows; r++ {
				for s := 0; s < slices; s++ {
					sum += int64(level[s][r][c]) * int64(xInt[r]) << uint(s*cfg.CellBits)
				}
			}
			acc[c] = float64(sum)
		}
	} else {
		for b := 0; b < cfg.InputBits; b++ {
			bitMask := 1 << uint(b)
			for s := 0; s < slices; s++ {
				scale := math.Pow(2, float64(b+s*cfg.CellBits))
				for c := 0; c < usedCols; c++ {
					sum := 0.0
					for r := 0; r < usedRows; r++ {
						if xInt[r]&bitMask != 0 {
							sum += float64(level[s][r][c])
						}
					}
					if cfg.ReadNoise > 0 {
						idx := (uint64(b)*uint64(slices) + uint64(s)) * uint64(usedCols)
						sum *= 1 + ns.Norm(idx+uint64(c))*cfg.ReadNoise
						if sum < 0 {
							sum = 0
						}
					}
					if sum > adcMaxSum {
						sum = adcMaxSum
					}
					digit := math.Round(sum/adcStep) * adcStep
					acc[c] += digit * scale
				}
			}
		}
	}

	out := make([]float64, usedCols)
	n := float64(usedRows)
	for c := 0; c < usedCols; c++ {
		t := 4*acc[c]/(wMax*xMax) - 2*colSum[c]/wMax - 2*xSum/xMax + n
		out[c] = wScale * xScale * t
	}
	return out
}

// oracleBatches are the batch sizes every oracle case runs: a lone item,
// the Go functional kernel's four-item block exactly, and blocks with 1–3
// remainder items before and after it. A case that brings more inputs than
// the largest of them also runs all of its inputs as one batch.
var oracleBatches = []int{1, 3, 4, 5, 8, 9}

// goKernelOnly takes the vector kernel away from every crossbar programmed
// until the returned function gives it back, as on a host without one. It
// writes a package variable: not for parallel tests.
func goKernelOnly() (restore func()) {
	saved := vectorDot
	vectorDot = nil
	return func() { vectorDot = saved }
}

// vectorShape is the vector kernel's envelope, stated on its own: operands
// that are non-negative int16s, and a padded column of largest products
// below 2^31.
func vectorShape(cfg Config, usedRows int) bool {
	wMax, xMax := int64(1)<<cfg.WeightBits-1, int64(1)<<cfg.InputBits-1
	return cfg.Functional && cfg.WeightBits <= 15 && cfg.InputBits <= 15 && wMax*xMax*int64(usedRows+15) < 1<<31
}

// checkAgainstOracle programs w on a fresh crossbar, lets assertPath
// inspect which tables Program built, and compares MVM and MVMBatch
// at every oracleBatches size to naiveMVM with ==, twice over so pooled
// scratch cannot leak state between calls. len(ins) must cover the
// largest batch; nss is nil on noise-free configurations. A functional case
// on a host with the vector kernel runs twice, once per kernel — the host's
// selection, then goKernelOnly — against the same oracle outputs.
func checkAgainstOracle(t *testing.T, cfg Config, w [][]float64, ins [][]float64, nss []noise.Source, assertPath func(*Crossbar)) {
	t.Helper()
	source := func(i int) noise.Source {
		if nss == nil {
			return NoNoise
		}
		return nss[i]
	}
	want := make([][]float64, len(ins))
	for i, in := range ins {
		want[i] = naiveMVM(cfg, w, in, source(i))
	}
	batches := oracleBatches
	if len(ins) > batches[len(batches)-1] {
		batches = append(batches[:len(batches):len(batches)], len(ins))
	}
	kernels := 1
	if cfg.Functional && vectorDot != nil {
		kernels = 2
	}
	for k := 0; k < kernels; k++ {
		if k == 1 {
			defer goKernelOnly()()
		}
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		assertPath(xb)
		check := func(path string, got [][]float64) {
			t.Helper()
			for i := range got {
				for c := range want[i] {
					if got[i][c] != want[i][c] {
						t.Fatalf("%s functional=%v (vector kernel: %v) cell=%d weight=%d input=%d sigma=%g shape=%dx%d batch=%d item %d col %d: kernel %v != oracle %v",
							path, cfg.Functional, xb.panel16 != nil, cfg.CellBits, cfg.WeightBits, cfg.InputBits, cfg.ReadNoise,
							len(w), len(w[0]), len(got), i, c, got[i][c], want[i][c])
					}
				}
			}
		}
		for rep := 0; rep < 2; rep++ {
			single, _, err := xb.MVM(ins[0], source(0))
			if err != nil {
				t.Fatal(err)
			}
			check("MVM", [][]float64{single})
			for _, bsz := range batches {
				var bnss []noise.Source
				if nss != nil {
					bnss = nss[:bsz]
				}
				got, _, err := xb.MVMBatch(ins[:bsz], bnss)
				if err != nil {
					t.Fatal(err)
				}
				check("MVMBatch", got)
			}
		}
		if s := xb.getScratch(); cfg.Functional && (s.masks != nil || s.sums != nil) {
			t.Fatal("functional MVM sized the bit-serial arenas (masks/sums)")
		} else if xb.panel16 == nil && s.x16 != nil {
			t.Fatal("an MVM that is not the vector kernel's sized the 16-bit input panel (x16)")
		} else if xb.panel16 != nil && s.xInt != nil {
			t.Fatal("the vector kernel's MVM sized the 32-bit input panel (xInt) beside its own")
		}
	}
}

// assertLanes is the functional-mode path assertion: Program built exactly
// one weight panel, the one its kernel reads — the 16-bit panel, padded to
// the 16-row step and the four-column tile, the accumulators at the padded
// column count, when the host has the vector kernel and the shape is in its
// envelope; the fused panel at the expected lane count, the accumulators at
// usedCols, otherwise — colOffset at least as long as the accumulator stride
// (the vector routine reads it four columns at a time), and neither the bit
// planes nor the ADC table beside it.
func assertLanes(t *testing.T, want int) func(*Crossbar) {
	return func(xb *Crossbar) {
		t.Helper()
		if len(xb.colOffset) < xb.accStride {
			t.Fatalf("rows=%d cols=%d: colOffset holds %d columns, the accumulator stride is %d", xb.usedRows, xb.usedCols, len(xb.colOffset), xb.accStride)
		}
		if vectorDot != nil && vectorShape(xb.cfg, xb.usedRows) {
			rows16, cols4 := (xb.usedRows+15)/16*16, (xb.usedCols+3)/4*4
			if len(xb.panel16) != cols4*rows16 || xb.rows16 != rows16 || xb.accStride != cols4 || xb.fused != nil || xb.lanes != 0 {
				t.Fatalf("weight=%d input=%d rows=%d cols=%d in the vector envelope: panel16 %d words at stride %d, acc stride %d (fused nil: %v, lanes %d)",
					xb.cfg.WeightBits, xb.cfg.InputBits, xb.usedRows, xb.usedCols, len(xb.panel16), xb.rows16, xb.accStride, xb.fused == nil, xb.lanes)
			}
		} else if xb.lanes != want || xb.fused == nil || xb.panel16 != nil || xb.accStride != xb.usedCols {
			t.Fatalf("weight=%d input=%d rows=%d cols=%d: lanes=%d, acc stride %d (fused nil: %v, panel16 nil: %v), table expects %d",
				xb.cfg.WeightBits, xb.cfg.InputBits, xb.usedRows, xb.usedCols, xb.lanes, xb.accStride, xb.fused == nil, xb.panel16 == nil, want)
		}
		if xb.planes != nil || xb.adcLUT != nil {
			t.Fatal("functional crossbar built the bit-serial tables (planes/adcLUT)")
		}
	}
}

// assertPlanes is the bit-serial path assertion: the bit planes exist at
// the padded word count, and no functional panel was fused beside them.
func assertPlanes(t *testing.T) func(*Crossbar) {
	return func(xb *Crossbar) {
		t.Helper()
		if want := (xb.usedRows + 127) / 128 * 2; xb.planes == nil || xb.planeWords != want {
			t.Fatalf("rows=%d: planeWords=%d (planes nil: %v), want %d", xb.usedRows, xb.planeWords, xb.planes == nil, want)
		}
		if xb.fused != nil || xb.panel16 != nil {
			t.Fatal("bit-serial crossbar built a functional weight panel beside its bit planes")
		}
	}
}

// TestKernelMatchesNaiveOracle asserts the kernels (functional: the vector
// kernel over 16-bit panels where the host has it, and the fused lane-packed
// integer GEMM, each functional row through both; bit-serial: weight bit
// planes, input-bit row masks, AND + popcount column sums, one strided draw
// fill, scale and ADC tables; pooled scratch) are bit-identical to the naive
// reference across functional/bit-serial modes, cell and weight widths on
// both sides of the functional lane bound and of the vector envelope, every
// used-row count around a plane-word boundary (the padded tail word
// included) in every cell width at the 256 conversions per column Validate
// admits at most, every used-row count around the vector kernel's 16-row
// step on one column and on 129, an odd cell width (a plane pair and a lone
// plane per slice), noise on/off, odd tile-remainder shapes (an odd usedCols
// leaves the fused panel's last word half empty), and through MVM as well as
// MVMBatch at every oracleBatches size, the 16-row-step rows at 64 as well.
func TestKernelMatchesNaiveOracle(t *testing.T) {
	if vectorDot == nil {
		t.Log("host has no vector kernel (amd64 with AVX2): functional rows ran through functionalGEMM only")
	}
	type shape struct{ m, n int }
	small := []shape{
		{16, 16}, // full array
		{13, 7},  // odd remainders
		{1, 16},  // single row
		{16, 1},  // single column
		{5, 11},
	}
	type array struct {
		rows, cols, cellBits, weightBits int
		// laneBits: the largest InputBits at which functionalGEMM still
		// packs two columns per word at these shapes; 0 runs the shapes
		// in bit-serial mode only.
		laneBits int
		shapes   []shape
	}
	arrays := []array{
		{16, 16, 1, 8, 16, small},
		{16, 16, 2, 8, 16, small},
		{16, 16, 4, 8, 16, small},
		{16, 16, 3, 9, 16, small[:2]}, // planes (0,1) as a pair, plane 2 alone
		// 65535·4095·16 fits 32 bits, 65535·65535·13 does not.
		{16, 16, 2, 16, 12, small[:2]},
		{16, 16, 4, 16, 12, small[:2]},
		{16, 16, 8, 16, 12, small[:2]},
		// 15-bit weights, the widest the vector kernel takes, and on these
		// shapes inside its envelope at 9 input bits and outside at 12:
		// 32767·511·31 < 2^31 < 32767·4095·28.
		{16, 16, 5, 15, 13, small[:2]},
		// 255·32767·300 fits 32 bits, 255·65535·300 does not.
		{300, 8, 8, 8, 15, []shape{{300, 5}}},
		// The lane bound itself at 16 input bits:
		// 255·65535·257 = 4 294 836 225 ≤ 2^32−1 < 255·65535·258.
		{257, 8, 2, 8, 16, []shape{{257, 5}}},
		{258, 8, 2, 8, 15, []shape{{258, 5}}},
	}
	// Every plane-word boundary: one row, a word less one, full, plus one;
	// the same around the 128-row step; three steps with a padded tail.
	// 16-bit weights, so 1-bit cells with 16 input bits reach the 256
	// conversions a column can have. The array is taller than any of them,
	// so the stored levels' column stride is never the used-row count.
	for _, rows := range []int{1, 63, 64, 65, 127, 128, 129, 300} {
		for _, cellBits := range []int{1, 2, 4, 8} {
			arrays = append(arrays, array{301, 4, cellBits, 16, 0, []shape{{rows, 3}}})
		}
	}
	for _, arr := range arrays {
		for _, inputBits := range []int{1, 3, 4, 6, 8, 9, 12, 16} {
			for _, functional := range []bool{false, true} {
				for _, sigma := range []float64{0, 0.03} {
					if functional && (sigma > 0 || arr.laneBits == 0) {
						continue // Validate rejects functional noise; the row sweep is the bit-serial kernel's
					}
					for _, sh := range arr.shapes {
						cfg := DefaultConfig()
						cfg.Rows, cfg.Cols = arr.rows, arr.cols
						cfg.CellBits, cfg.WeightBits = arr.cellBits, arr.weightBits
						cfg.InputBits = inputBits
						cfg.Functional = functional
						cfg.ReadNoise = sigma

						rng := rand.New(rand.NewSource(int64(sh.m*100 + sh.n + arr.cellBits)))
						w := randomMatrix(rng, sh.m, sh.n)
						var nss []noise.Source
						assertPath := assertPlanes(t)
						batch := oracleBatches[len(oracleBatches)-1]
						if functional {
							lanes := 1
							if inputBits <= arr.laneBits {
								lanes = 2
							}
							assertPath = assertLanes(t, lanes)
						} else if sigma > 0 {
							nss = perItemSources(noise.NewSource(99), batch)
						}
						checkAgainstOracle(t, cfg, w, batchInputs(rng, batch, sh.m), nss, assertPath)
					}
				}
			}
		}
	}
	// The same boundaries for the vector kernel's 16-row step, functional
	// only: a lone row (fifteen pad rows), a step less one, full, plus one,
	// the same around the benchmark's 128, a padded tail past them; one
	// column and one more than the benchmark's array has; a batch of 64, the
	// benchmark's. All inside the envelope but 15 input bits on 300 rows
	// (255·32767·315 ≥ 2^31), and two lanes wherever functionalGEMM runs.
	for _, rows := range []int{1, 15, 16, 17, 127, 128, 129, 300} {
		for _, cols := range []int{1, 129} {
			for _, inputBits := range []int{8, 15} {
				cfg := DefaultConfig()
				cfg.Rows, cfg.Cols = 301, 129
				cfg.InputBits = inputBits
				cfg.Functional = true
				rng := rand.New(rand.NewSource(int64(rows*100 + cols)))
				checkAgainstOracle(t, cfg, randomMatrix(rng, rows, cols), batchInputs(rng, 64, rows), nil, assertLanes(t, 2))
			}
		}
	}
}

// TestVectorEnvelope pins the vector kernel's envelope from both sides: which
// panel Program builds, and so which kernel every MVM takes, follows from the
// host's feature bits and the programmed shape alone — and on both sides of
// every clause the outputs are the oracle's, through the kernel the shape
// selects and through the Go kernel.
func TestVectorEnvelope(t *testing.T) {
	if vectorDot == nil {
		t.Skip("host has no vector kernel (amd64 with AVX2): every functional shape takes functionalGEMM")
	}
	for _, tc := range []struct {
		name                            string
		cellBits, weightBits, inputBits int
		rows                            int
		vector                          bool
	}{
		{"default 8x8 on 128 rows", 2, 8, 8, 128, true},
		{"16-bit weights are not int16", 4, 16, 8, 16, false},
		{"16-bit inputs are not int16", 2, 8, 16, 16, false},
		{"15x12 on one row, 32767·4095·16 < 2^31", 5, 15, 12, 1, true},
		{"15x12 on two rows, 32767·4095·17 ≥ 2^31", 5, 15, 12, 2, false},
		{"12x12 on 100 rows, 4095²·115 < 2^31", 4, 12, 12, 100, true},
		{"12x12 on 113 rows, 4095²·128 < 2^31", 4, 12, 12, 113, true},
		{"12x12 on 114 rows, 4095²·129 ≥ 2^31", 4, 12, 12, 114, false},
		{"12x12 on 128 rows, 4095²·143 ≥ 2^31", 4, 12, 12, 128, false},
		{"8x8 on 33010 rows, 255²·33025 < 2^31", 2, 8, 8, 33010, true},
		{"8x8 on 33011 rows, 255²·33026 ≥ 2^31", 2, 8, 8, 33011, false},
	} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = tc.rows, 2
		cfg.CellBits, cfg.WeightBits, cfg.InputBits = tc.cellBits, tc.weightBits, tc.inputBits
		cfg.Functional = true
		if got := vectorShape(cfg, tc.rows); got != tc.vector {
			t.Fatalf("%s: the test's own envelope says %v", tc.name, got)
		}
		rng := rand.New(rand.NewSource(int64(tc.rows)))
		checkAgainstOracle(t, cfg, randomMatrix(rng, tc.rows, 2), batchInputs(rng, 9, tc.rows), nil, func(xb *Crossbar) {
			// The second pass runs under goKernelOnly: fused whatever the shape.
			want := tc.vector && vectorDot != nil
			if vector := xb.panel16 != nil; vector != want || (xb.fused != nil) == vector {
				t.Errorf("%s: vector panel built: %v, fused panel built: %v; want the vector kernel: %v",
					tc.name, vector, xb.fused != nil, want)
			}
		})
	}
}

// TestVectorTileEdges pins the edges of the vector routine's register tile the
// way TestKernelMatchesNaiveOracle pins its 16-row step: every column count
// around the four-column group (a lone column to one past a group, the
// benchmark MLP's ten, and the same around the array's 128, so one to three
// pad columns and none), every batch around the two-item pass (odd ones end
// in the four-by-one pass) up to and past 32, on every row count around the
// 16-row step and the array's 128. The vector kernel, the Go kernel and
// naiveMVM agree with ==.
func TestVectorTileEdges(t *testing.T) {
	if vectorDot == nil {
		t.Log("host has no vector kernel (amd64 with AVX2): every shape ran through functionalGEMM only")
	}
	batches := []int{1, 2, 3, 31, 32, 33}
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 128, 130
	cfg.Functional = true
	for _, rows := range []int{1, 15, 16, 17, 128} {
		for _, cols := range []int{1, 2, 3, 4, 5, 7, 10, 127, 128, 130} {
			rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
			w := randomMatrix(rng, rows, cols)
			ins := batchInputs(rng, batches[len(batches)-1], rows)
			want := make([][]float64, len(ins))
			for i, in := range ins {
				want[i] = naiveMVM(cfg, w, in, NoNoise)
			}
			for _, goKernel := range []bool{false, true} {
				restore := func() {}
				if goKernel {
					restore = goKernelOnly()
				}
				xb, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := xb.Program(w); err != nil {
					t.Fatal(err)
				}
				assertLanes(t, 2)(xb)
				restore()
				for _, n := range batches {
					got, _, err := xb.MVMBatch(ins[:n], nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						for c := range want[i] {
							if got[i][c] != want[i][c] {
								t.Fatalf("vector kernel %v shape=%dx%d batch=%d item %d col %d: kernel %v != oracle %v",
									xb.panel16 != nil, rows, cols, n, i, c, got[i][c], want[i][c])
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanesMatchStoredLevels: the bit planes are a transposition of what
// the cells hold and nothing else. On an array whose stored levels differ
// from the intended ones in every way Program can make them differ —
// columns remapped to spares, spares exhausted and corrupted columns
// committed, verified cells drifted — every (row, column, slice) level
// rebuilt from the planes equals sliceT, and every plane bit past the used
// rows is zero.
func TestPlanesMatchStoredLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 140, 24
	cfg.SpareCols = 4
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := faultinject.Model{StuckLowRate: 0.0005, StuckHighRate: 0.0005, DriftRate: 0.05, DriftMax: 0.5, Seed: 4}
	if err := xb.SetFaults(m, m.Root()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const rows, cols = 130, 20 // three plane words in use, the fourth padding
	w := randomMatrix(rng, rows, cols)
	for epoch := 0; epoch < 3; epoch++ { // drift compounds per program pass
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
	}
	if rep := xb.FaultReport(); rep.RemappedCols == 0 || rep.LostCols == 0 || rep.DriftCells == 0 {
		t.Fatalf("array is not remapped, spare-exhausted and drifted; the test is vacuous: %+v", rep)
	}
	pw := xb.planeWords
	for c := 0; c < cols; c++ {
		for s := 0; s < xb.numSlices; s++ {
			for r := 0; r < 64*pw; r++ {
				var level uint8
				for p := 0; p < cfg.CellBits; p++ {
					word := xb.planes[(c*cfg.WeightBits+s*cfg.CellBits+p)*pw+r/64]
					level |= uint8(word>>uint(r%64)&1) << uint(p)
				}
				var want uint8
				if r < rows {
					want = xb.sliceT[s][c*cfg.Rows+r]
				}
				if level != want {
					t.Fatalf("row %d col %d slice %d: planes hold level %d, cells %d", r, c, s, level, want)
				}
			}
		}
	}
}

// TestFunctionalPanelMatchesStoredLevels is the same statement for functional
// mode, made on outputs: either weight panel is fused from sliceT after
// programAndVerify, so on the same remapped, spare-exhausted and drifted array
// both kernels equal the oracle's slice-at-a-time reduction over the stored
// levels with == — and differ from the oracle over the intended ones.
func TestFunctionalPanelMatchesStoredLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 140, 24
	cfg.SpareCols = 4
	cfg.Functional = true
	const rows, cols = 130, 20 // a padded tail on the vector kernel's ninth step
	rng := rand.New(rand.NewSource(4))
	w := randomMatrix(rng, rows, cols)
	ins := batchInputs(rng, 7, rows)
	for _, goKernel := range []bool{false, true} {
		if goKernel {
			defer goKernelOnly()()
		}
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := faultinject.Model{StuckLowRate: 0.0005, StuckHighRate: 0.0005, DriftRate: 0.05, DriftMax: 0.5, Seed: 4}
		if err := xb.SetFaults(m, m.Root()); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 3; epoch++ { // drift compounds per program pass
			if _, err := xb.Program(w); err != nil {
				t.Fatal(err)
			}
		}
		if rep := xb.FaultReport(); rep.RemappedCols == 0 || rep.LostCols == 0 || rep.DriftCells == 0 {
			t.Fatalf("array is not remapped, spare-exhausted and drifted; the test is vacuous: %+v", rep)
		}
		assertLanes(t, 2)(xb)
		got, _, err := xb.MVMBatch(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		faulted := false
		for i, in := range ins {
			want, intended := naiveMVMStored(cfg, w, in, NoNoise, xb.sliceT), naiveMVM(cfg, w, in, NoNoise)
			for c := range want {
				if got[i][c] != want[c] {
					t.Fatalf("vector kernel %v, item %d col %d: kernel %v != oracle over stored levels %v", xb.panel16 != nil, i, c, got[i][c], want[c])
				}
				faulted = faulted || want[c] != intended[c]
			}
		}
		if !faulted {
			t.Fatal("stored levels give the intended outputs; the test is vacuous")
		}
	}
}

// FuzzPlaneSums: for any shape, stored levels and quantized inputs, the
// AND + popcount column sums over the planes and the row masks equal a
// per-bit gather over sliceT — the integer the oracle's float loop adds up.
func FuzzPlaneSums(f *testing.F) {
	f.Add(int64(1), uint16(128), uint8(2), uint8(4), uint8(8))  // the default block
	f.Add(int64(2), uint16(300), uint8(8), uint8(1), uint8(16)) // sums past 16 bits
	f.Add(int64(3), uint16(65), uint8(1), uint8(16), uint8(16)) // 256 conversions
	f.Add(int64(4), uint16(1), uint8(3), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, cellBits, slices, inBits uint8) {
		cfg := DefaultConfig()
		cfg.CellBits = 1 + int(cellBits)%8
		cfg.WeightBits = cfg.CellBits * (1 + int(slices)%(16/cfg.CellBits))
		cfg.InputBits = 1 + int(inBits)%16
		cfg.Rows, cfg.Cols = 1+int(rows)%400, 3
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		xb.usedRows, xb.usedCols = 1+rng.Intn(cfg.Rows), 1+rng.Intn(cfg.Cols)
		for _, sl := range xb.sliceT {
			for i := range sl {
				sl[i] = uint8(rng.Intn(1 << cfg.CellBits))
			}
		}
		xb.packSlices()
		const n = 2
		s := xb.getScratch()
		s.xInt = make([]int32, n*xb.usedRows)
		for i := range s.xInt {
			s.xInt[i] = int32(rng.Intn(1 << cfg.InputBits))
		}
		xb.rowMasks(s, n)
		itemWords := cfg.InputBits * xb.planeWords
		colWords := cfg.WeightBits * xb.planeWords
		for c := 0; c < xb.usedCols; c++ {
			for i := 0; i < n; i++ {
				columnSums(s.sums, xb.planes[c*colWords:][:colWords], s.masks[i*itemWords:][:itemWords],
					xb.numSlices, cfg.CellBits, xb.planeWords)
				for b := 0; b < cfg.InputBits; b++ {
					for sl := 0; sl < xb.numSlices; sl++ {
						var want uint32
						for r := 0; r < xb.usedRows; r++ {
							if s.xInt[i*xb.usedRows+r]>>uint(b)&1 != 0 {
								want += uint32(xb.sliceT[sl][c*cfg.Rows+r])
							}
						}
						if got := s.sums[b*xb.numSlices+sl]; got != want {
							t.Fatalf("cell=%d weight=%d input=%d rows=%d: item %d col %d bit %d slice %d: popcount sum %d != gather %d",
								cfg.CellBits, cfg.WeightBits, cfg.InputBits, xb.usedRows, i, c, b, sl, got, want)
						}
					}
				}
			}
		}
	})
}

// assertPadsZero checks the rows the vector kernel reads past usedRows, on
// both sides: each column of the weight panel and each of the n items the
// latest call left in scratch s. Either side being zero makes the products
// zero; both are pinned, so neither relies on the other. The columns it reads
// past usedCols are the weight panel's alone, and zero whole. A scratch the
// pool handed out fresh (under -race it drops items) has no items to check.
func assertPadsZero(t *testing.T, xb *Crossbar, s *mvmBatchScratch, n int) {
	t.Helper()
	rows, rows16 := xb.usedRows, xb.rows16
	for c := 0; c < xb.usedCols; c++ {
		for r, w := range xb.panel16[c*rows16:][rows:rows16] {
			if w != 0 {
				t.Fatalf("rows=%d: weight panel column %d pad row %d holds %d", rows, c, rows+r, w)
			}
		}
	}
	for j, w := range xb.panel16[xb.usedCols*rows16:] {
		if w != 0 {
			t.Fatalf("cols=%d: weight panel pad column %d row %d holds %d", xb.usedCols, xb.usedCols+j/rows16, j%rows16, w)
		}
	}
	for i := 0; i < n && len(s.x16) >= n*rows16; i++ {
		for r, q := range s.x16[i*rows16:][rows:rows16] {
			if q != 0 {
				t.Fatalf("rows=%d batch=%d: input panel item %d pad row %d holds %d", rows, n, i, rows+r, q)
			}
		}
	}
}

// FuzzVectorDot: for any shape, batch and operand widths inside the vector
// kernel's envelope, any stored levels, weight scale, non-zero column offsets
// and inputs, the y the routine stores — over the panel fuseWeights builds,
// the 16-bit panel quantize fills and the per-item terms multiply computes
// from what quantize returned — is what the Go dequantize computes from the
// integer Σ_r W[r,c]·x[r] a scalar loop over sliceT and the quantized inputs
// adds up, with ==, on a scratch whose 16-bit arena an earlier, larger call
// left full of ones.
func FuzzVectorDot(f *testing.F) {
	if vectorDot == nil {
		f.Skip("host has no vector kernel (amd64 with AVX2)")
	}
	f.Add(int64(1), uint16(128), uint8(128), uint8(64), uint8(2), uint8(4), uint8(8)) // the benchmark's block
	f.Add(int64(2), uint16(113), uint8(3), uint8(1), uint8(4), uint8(3), uint8(12))   // 12 × 12 bits on its last row count
	f.Add(int64(3), uint16(1), uint8(1), uint8(5), uint8(5), uint8(3), uint8(12))     // 15 × 12 bits: one row, fifteen pad rows
	f.Add(int64(4), uint16(399), uint8(7), uint8(3), uint8(1), uint8(1), uint8(15))   // a padded tail past 24 steps
	f.Add(int64(5), uint16(128), uint8(129), uint8(32), uint8(1), uint8(3), uint8(7)) // 70 × 117, a column past a group of four, at an odd batch of 33
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, cols, items, cellBits, slices, inBits uint8) {
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.CellBits = 1 + int(cellBits)%8
		cfg.WeightBits = cfg.CellBits * (1 + int(slices)%(15/cfg.CellBits))
		cfg.InputBits = 1 + int(inBits)%15
		cfg.Rows, cfg.Cols = 1+int(rows)%400, 1+int(cols)%130
		for cfg.Rows > 1 && !vectorShape(cfg, cfg.Rows) {
			cfg.Rows /= 2
		}
		if !vectorShape(cfg, cfg.Rows) {
			t.Skip("operands too wide for the envelope on any row count")
		}
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		xb.usedRows, xb.usedCols = 1+rng.Intn(cfg.Rows), 1+rng.Intn(cfg.Cols)
		for _, sl := range xb.sliceT {
			for i := range sl {
				sl[i] = uint8(rng.Intn(1 << cfg.CellBits))
			}
		}
		xb.fuseWeights()
		if xb.panel16 == nil {
			t.Fatalf("weight=%d input=%d rows=%d is in the envelope, and fuseWeights built no 16-bit panel", cfg.WeightBits, cfg.InputBits, xb.usedRows)
		}
		// What Program tabulates beside the panel, from random column sums
		// up to a column of largest weights and a scale of any magnitude.
		wMax := float64(int(1)<<cfg.WeightBits - 1)
		for c := range xb.colOffset[:xb.usedCols] {
			xb.colOffset[c] = 2 * float64(1+rng.Int63n(int64(wMax)*int64(xb.usedRows))) / wMax
		}
		xb.wScale = math.Ldexp(1+rng.Float64(), rng.Intn(41)-20)
		xb.dequant = [3]float64{4, wMax * float64(int(1)<<cfg.InputBits-1), float64(xb.usedRows)}
		n := 1 + int(items)%70
		s := xb.getScratch()
		s.x16 = make([]int16, (n+1)*xb.rows16)
		for i := range s.x16 {
			s.x16[i] = 1
		}
		// Inputs whose quantized values cover the whole input range: the
		// first pins the item's scale to 1, the rest are uniform in [−1, 1].
		ins := batchInputs(rng, n, xb.usedRows)
		for _, in := range ins {
			in[0] = 1
		}
		if err := xb.quantize(s, ins); err != nil {
			t.Fatal(err)
		}
		dsts := newPanel(n, xb.usedCols)
		xb.multiply(s, dsts, nil, store)
		assertPadsZero(t, xb, s, n)
		// The reference: the scalar sums in an accumulator panel of the same
		// stride, finished by dequantize with the terms multiply computed.
		ref := &mvmBatchScratch{acc: make([]float64, n*xb.accStride), terms: s.terms}
		for i := 0; i < n; i++ {
			xi := s.x16[i*xb.rows16:][:xb.usedRows]
			for c := 0; c < xb.usedCols; c++ {
				var sum int64
				for r := 0; r < xb.usedRows; r++ {
					for sl := range xb.sliceT {
						sum += int64(xb.sliceT[sl][c*cfg.Rows+r]) << uint(sl*cfg.CellBits) * int64(xi[r])
					}
				}
				ref.acc[i*xb.accStride+c] = float64(sum)
			}
		}
		xb.dequantize(ref, n)
		for i := 0; i < n; i++ {
			for c := 0; c < xb.usedCols; c++ {
				if got, want := dsts[i][c], ref.acc[i*xb.accStride+c]; got != want {
					t.Fatalf("cell=%d weight=%d input=%d shape=%dx%d batch=%d item %d col %d: vector routine y = %v, dequantize of the scalar sum %v",
						cfg.CellBits, cfg.WeightBits, cfg.InputBits, xb.usedRows, xb.usedCols, n, i, c, got, want)
				}
			}
		}
	})
}

// TestFunctionalLaneSaturation drives both functional kernels to the largest
// sums their envelopes admit — every weight and every input at +max on the
// largest in-envelope row count — so a carry into the neighbouring column
// (functionalGEMM's two-column words: 255·65535·257 = 65535·65535·1 =
// 4 294 836 225 ≤ 2^32−1) or a wrapped pair sum, lane or horizontal sum (the
// vector kernel's signed 32-bit arithmetic: 255²·(33010+15), 4095²·(113+15)
// and 32767·4095·(1+15) are the last products below 2^31, and 4095²·113 is a
// real column sum of 1 894 899 825) would break == against the oracle. Odd
// and even column counts: the fused panel's last word half empty and full.
func TestFunctionalLaneSaturation(t *testing.T) {
	for _, tc := range []struct{ cellBits, weightBits, inputBits, rows, cols int }{
		{2, 8, 16, 257, 5},
		{2, 8, 16, 257, 4},
		{4, 16, 16, 1, 7},
		{2, 8, 8, 33010, 3},
		{4, 12, 12, 113, 5},
		{5, 15, 12, 1, 4},
	} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = tc.rows, 8
		cfg.CellBits, cfg.WeightBits = tc.cellBits, tc.weightBits
		cfg.InputBits = tc.inputBits
		cfg.Functional = true
		if edge := vectorShape(cfg, tc.rows) && !vectorShape(cfg, tc.rows+1); tc.inputBits < 16 && !edge {
			t.Fatalf("weight=%d input=%d: %d rows is not the vector envelope's edge", tc.weightBits, tc.inputBits, tc.rows)
		}
		w := make([][]float64, tc.rows)
		for r := range w {
			w[r] = make([]float64, tc.cols)
			for c := range w[r] {
				w[r][c] = 1
			}
		}
		ins := make([][]float64, oracleBatches[len(oracleBatches)-1])
		for i := range ins {
			ins[i] = make([]float64, tc.rows)
			for r := range ins[i] {
				ins[i][r] = 1
			}
		}
		checkAgainstOracle(t, cfg, w, ins, nil, assertLanes(t, 2))
	}
}

// TestNoisyMVMOrderIndependence: the draw for (bit, slice, column) is a
// pure function of position, so repeated noisy MVMs with the same source
// are identical — there is no hidden stream state to advance.
func TestNoisyMVMOrderIndependence(t *testing.T) {
	cfg := smallConfig()
	cfg.ReadNoise = 0.05
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if _, err := xb.Program(randomMatrix(rng, 16, 16)); err != nil {
		t.Fatal(err)
	}
	in := randomVector(rng, 16)
	ns := noise.NewSource(13)
	first, _, err := xb.MVM(in, ns)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		out, _, err := xb.MVM(in, ns)
		if err != nil {
			t.Fatal(err)
		}
		for c := range out {
			if out[c] != first[c] {
				t.Fatalf("repeat %d col %d: %v != %v (noise source leaked state)", k, c, out[c], first[c])
			}
		}
	}
	// A different source must actually change the output.
	other, _, err := xb.MVM(in, noise.NewSource(14))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for c := range other {
		if other[c] != first[c] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different noise sources produced identical noisy outputs")
	}
}

// TestNoisySlowPathDraws runs the purity suites over draws known to leave
// the sampler's fast path, where a draw consumes further words of its own
// rejection chain. noise.NewSource(82) is the source internal/noise's
// TestNormBranches names branch by branch: on a 16-column array its draws
// 48 (wedge rejected, retried), 52 (wedge accepted), 123 and 382 (tail)
// all land inside the 512 conversions of one MVM. Such a draw must still be
// a pure function of (source, index): == the oracle through MVM and at
// every batch size with the source at the front, middle and back of the
// batch, through both loops of columnSums, traced and untraced.
func TestNoisySlowPathDraws(t *testing.T) {
	slow := noise.NewSource(82)
	for _, i := range []uint64{123, 382} {
		// Visible from outside the package: only the tail sampler returns
		// a value past the ziggurat's last edge.
		if z := slow.Norm(i); math.Abs(z) <= 3.4427 {
			t.Fatalf("draw %d of NewSource(82) = %v is no longer a tail draw: pick the source again from noise.TestNormBranches", i, z)
		}
	}
	maxBatch := oracleBatches[len(oracleBatches)-1]
	nss := perItemSources(slow, maxBatch)
	nss[0], nss[4], nss[maxBatch-1] = slow, slow, slow
	for _, cellBits := range []int{1, 2} { // the general loop; the default block
		cfg := smallConfig()
		cfg.CellBits = cellBits
		cfg.ReadNoise = 0.03
		rng := rand.New(rand.NewSource(82))
		w := randomMatrix(rng, 16, 16)
		ins := batchInputs(rng, maxBatch, 16)
		checkAgainstOracle(t, cfg, w, ins, nss, assertPlanes(t))

		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		dsts := make([][]float64, maxBatch)
		for i := range dsts {
			dsts[i] = make([]float64, 16)
		}
		tr := obs.New()
		root := tr.Root("run.mvm_batch")
		cost, err := xb.MVMBatchIntoCtx(root, dsts, ins, nss)
		root.End(cost)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dsts {
			want := naiveMVM(cfg, w, ins[i], nss[i])
			for c := range want {
				if dsts[i][c] != want[c] {
					t.Fatalf("cell=%d traced batch item %d col %d: kernel %v != oracle %v", cellBits, i, c, dsts[i][c], want[c])
				}
			}
		}
	}
}

// TestMVMIntoZeroAlloc is the steady-state allocation contract: after the
// first call warms the scratch pool, MVMInto must not allocate, in any of
// the kernel's modes.
func TestMVMIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so alloc counts are unreliable")
	}
	for _, mode := range zeroAllocModes {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 64, 64
		cfg.Functional, cfg.InputBits, cfg.ReadNoise = mode.functional, mode.inputBits, mode.sigma
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		if _, err := xb.Program(randomMatrix(rng, 64, 64)); err != nil {
			t.Fatal(err)
		}
		in := randomVector(rng, 64)
		dst := make([]float64, 64)
		ns := NoNoise
		if mode.sigma > 0 {
			ns = noise.NewSource(3)
		}
		if _, err := xb.MVMInto(dst, in, ns); err != nil {
			t.Fatal(err) // warm the pool
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := xb.MVMInto(dst, in, ns); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: MVMInto allocates %g objects/op, want 0", mode.name, allocs)
		}
	}
}

// TestMVMIntoDstValidation: MVMInto must fail fast on a mis-sized dst
// before doing any quantization work.
func TestMVMIntoDstValidation(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program([][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := xb.MVMInto(make([]float64, 3), []float64{1, 1}, NoNoise); err == nil {
		t.Error("wrong dst length should fail")
	}
	if _, err := xb.MVMInto(nil, []float64{1, 1}, NoNoise); err == nil {
		t.Error("nil dst should fail")
	}
}

// TestNewRejectsZeroADCBits is the regression test for the adcStep == 0
// fallback: ADCBits = 0 used to slip past construction and silently
// degrade quantization in the kernel; now New rejects it outright.
func TestNewRejectsZeroADCBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ADCBits = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New must reject ADCBits = 0")
	} else if !strings.Contains(err.Error(), "ADCBits") {
		t.Errorf("error %q should name ADCBits", err)
	}
	if _, err := NewTile(cfg); err == nil {
		t.Fatal("NewTile must reject ADCBits = 0")
	}
}
