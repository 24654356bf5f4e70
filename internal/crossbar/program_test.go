package crossbar

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/obs"
)

// programOracle is what Program stores and tabulates, computed the way the
// crossbar once did it: row-major over the weights, max |w| by math.Abs,
// math.Round once per weight, and every slice level cut out of the rounded
// integer on its own. It returns the packed levels over the whole Rows ×
// Cols array, levels[c*Rows+r] (zero past the programmed shape), and the
// column offsets, Cols long, the first len(w[0]) of them meaningful.
func programOracle(cfg Config, w [][]float64) (levels []uint16, colOffset []float64) {
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
	levels = make([]uint16, cfg.Rows*cfg.Cols)
	colSum := make([]int64, cfg.Cols)
	colOffset = make([]float64, cfg.Cols)
	for r := range w {
		for c := range w[r] {
			w01 := (w[r][c]/wScale + 1) / 2
			wInt := int(math.Round(w01 * wMax))
			colSum[c] += int64(wInt)
			for s := 0; s < cfg.WeightBits/cfg.CellBits; s++ {
				shift := uint(s * cfg.CellBits)
				levels[c*cfg.Rows+r] |= uint16(wInt>>shift&cellMask) << shift
			}
		}
	}
	for c := range w[0] {
		colOffset[c] = 2 * float64(colSum[c]) / wMax
	}
	return levels, colOffset
}

// planesOracle transposes the stored levels into the bit-serial kernel's
// planes one bit at a time: bit p of slice s's level at (r, c) is bit r%64
// of word r/64 of plane (c, s*CellBits+p).
func planesOracle(cfg Config, levels []uint16, rows, cols int) []uint64 {
	pw := (rows + 127) / 128 * 2
	planes := make([]uint64, cols*cfg.WeightBits*pw)
	for c := 0; c < cols; c++ {
		for s := 0; s < cfg.WeightBits/cfg.CellBits; s++ {
			for p := 0; p < cfg.CellBits; p++ {
				k := s*cfg.CellBits + p
				for r := 0; r < rows; r++ {
					level := int(levels[c*cfg.Rows+r]) >> uint(s*cfg.CellBits) & (1<<cfg.CellBits - 1)
					if level>>uint(p)&1 != 0 {
						planes[(c*cfg.WeightBits+k)*pw+r/64] |= 1 << uint(r%64)
					}
				}
			}
		}
	}
	return planes
}

// panelOracle lays the oracle's levels (levels[c*Rows+r]) out as the
// Crossbar fields document: the store, as long as the crossbar's, with
// column c at c*stride, stride the used rows rounded up to 16, and zero in
// every pad row, pad column and cell past them; and on the Go kernel the
// fused panel, lanes columns per word.
func panelOracle(xb *Crossbar, levels []uint16) (panel []uint16, fused []uint64) {
	rows, cols, stride := xb.usedRows, xb.usedCols, (xb.usedRows+15)&^15
	panel = make([]uint16, len(xb.levels))
	for c := 0; c < cols; c++ {
		copy(panel[c*stride:], levels[c*xb.cfg.Rows:][:rows])
	}
	if !xb.cfg.Functional || xb.lanes == 0 {
		return panel, nil
	}
	fused = make([]uint64, (cols+xb.lanes-1)/xb.lanes*rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			fused[c/xb.lanes*rows+r] |= uint64(levels[c*xb.cfg.Rows+r]) << uint(32*(c%xb.lanes))
		}
	}
	return panel, fused
}

// TestProgramMatchesNaive holds what Program stores and tabulates — the
// packed levels in the vector kernel's layout, pads included, the column
// offsets, and whichever view of them the mode reads (the bit planes, or
// fused on the Go kernel) — equal with == to the row-major, per-slice
// math.Round oracle: at every cell width 1–8 with the widest weights it
// divides, 16-bit weights included (the Go kernel's panel on every host), on
// row counts that are not a multiple of eight, on a matrix with −0 and
// exact-half weights, on an all-zero matrix, and after a reprogram to a
// smaller shape. Every matrix goes in twice: by columns, the layout a tile
// hands each block, and then by rows (Program).
func TestProgramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	halves := func(cfg Config, rows, cols int) [][]float64 {
		w := randomMatrix(rng, rows, cols)
		w[0][0] = 1                         // the scale, so the halves below are ties
		w[0][1%cols] = math.Copysign(0, -1) // −0 quantizes as +0 does
		wMax := float64(int(1)<<cfg.WeightBits - 1)
		for r := 1; r < rows; r += 3 {
			k := float64(rng.Intn(int(wMax)))
			w[r][rng.Intn(cols)] = 2*(k+0.5)/wMax - 1
		}
		return w
	}
	shapes := [][2]int{{13, 7}, {130, 20}, {8, 3}, {1, 1}}
	for cellBits := 1; cellBits <= 8; cellBits++ {
		for _, mode := range []string{"bit-serial", "functional", "functional, Go kernel"} {
			cfg := DefaultConfig()
			cfg.Rows, cfg.Cols = 140, 24
			cfg.CellBits = cellBits
			cfg.WeightBits = 16 / cellBits * cellBits
			cfg.Functional = mode != "bit-serial"
			name := fmt.Sprintf("cell=%d weight=%d %s", cellBits, cfg.WeightBits, mode)
			t.Run(name, func(t *testing.T) {
				if mode == "functional, Go kernel" {
					defer goKernelOnly()()
				}
				xb, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Larger shapes first: each reprogram is to a smaller one.
				for _, sh := range shapes {
					checkProgram(t, xb, halves(cfg, sh[0], sh[1]))
				}
				zero := make([][]float64, 9)
				for r := range zero {
					zero[r] = make([]float64, 5)
				}
				zero[2][3] = math.Copysign(0, -1)
				checkProgram(t, xb, zero)
			})
		}
	}
}

// checkProgram programs w through each entry — the column path first, so
// that it is the one a reshape reaches, then the row-major Program — and
// after each compares the crossbar's stored state with the oracles'.
func checkProgram(t *testing.T, xb *Crossbar, w [][]float64) {
	t.Helper()
	byCol := columnsOf(w)
	var top uint64
	for _, col := range byCol {
		top = max(top, maxBits(col))
	}
	xb.program(obs.Ctx{}, byCol, top)
	checkStored(t, xb, w, "by columns")
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	checkStored(t, xb, w, "by rows")
}

// checkStored compares the crossbar's stored state, w programmed, with the
// oracles'.
func checkStored(t *testing.T, xb *Crossbar, w [][]float64, entry string) {
	t.Helper()
	rows, cols := len(w), len(w[0])
	shape := fmt.Sprintf("%dx%d %s", rows, cols, entry)
	levels, colOffset := programOracle(xb.cfg, w)
	panel, fused := panelOracle(xb, levels)
	equal(t, shape+" levels", xb.levels, panel)
	equal(t, shape+" colOffset", xb.colOffset[:cols], colOffset[:cols])
	if !xb.cfg.Functional {
		equal(t, shape+" planes", xb.planes, planesOracle(xb.cfg, levels, rows, cols))
		return
	}
	if xb.cfg.WeightBits > 15 && xb.vectorKernel() {
		t.Fatalf("weight=%d: the vector kernel was chosen where only the Go kernel is exact", xb.cfg.WeightBits)
	}
	equal(t, shape+" fused", xb.fused, fused)
}

// equal fails the test at the first element where got and want differ.
func equal[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestProgramErrorOrder: Program reports the first bad row in row order,
// whatever is wrong with it — a NaN in row 1 before a ragged row 3, a
// ragged row 1 before an Inf in row 3 — and changes no stored state.
func TestProgramErrorOrder(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := randomMatrix(rand.New(rand.NewSource(1)), 5, 4)
	if _, err := xb.Program(good); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(xb.levels)
	for _, tc := range []struct {
		bad  func(w [][]float64)
		want string
	}{
		{func(w [][]float64) { w[1][2] = math.NaN(); w[3] = w[3][:2] }, "non-finite weight at row 1"},
		{func(w [][]float64) { w[1] = w[1][:2]; w[3][0] = math.Inf(-1) }, "ragged weight matrix at row 1 (2 != 4)"},
		{func(w [][]float64) { w[4][3] = math.Inf(1) }, "non-finite weight at row 4"},
	} {
		w := randomMatrix(rand.New(rand.NewSource(2)), 5, 4)
		tc.bad(w)
		_, err := xb.Program(w)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %v, want one naming %q", err, tc.want)
		}
		if !slices.Equal(xb.levels, before) {
			t.Fatalf("a rejected matrix (%q) changed the stored levels", tc.want)
		}
	}
}

// TestProgramAllocs pins the write path's allocations: a same-shape
// fault-free reprogram allocates nothing in any mode (every table is
// reused), and program-and-verify allocates one column's worth of stored
// levels, not an arena of the whole matrix.
func TestProgramAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mode := range zeroAllocModes {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 64, 64
		cfg.Functional, cfg.InputBits, cfg.ReadNoise = mode.functional, mode.inputBits, mode.sigma
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := randomMatrix(rng, 61, 64)
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := xb.Program(w); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a same-shape reprogram allocates %g objects, want 0", mode.name, allocs)
		}
	}

	const rows, cols = 64, 128
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.SpareCols = rows, cols, 4
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := faultinject.Model{StuckLowRate: 0.001, WriteFailRate: 0.05, Seed: 5}
	if err := xb.SetFaults(m, m.Root()); err != nil {
		t.Fatal(err)
	}
	w := randomMatrix(rng, rows, cols)
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	if rep := xb.FaultReport(); rep.RetryPulses == 0 || rep.StuckCells == 0 {
		t.Fatalf("no retries or stuck cells; the fault path is not exercised: %+v", rep)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call beside its runs.
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if allocs > 1 || perRun > 8*rows {
		t.Errorf("program-and-verify allocates %g objects and %d bytes a pass, want at most one column's buffer (%d bytes)", allocs, perRun, 2*rows)
	}
}
