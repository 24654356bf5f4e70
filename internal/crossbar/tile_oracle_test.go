package crossbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// naiveTileMVM is the reference the tile is pinned to, and the only
// implementation of the block grid outside tile.go: naiveMVM on each block's
// row/column slice of w, block b = br·bcols + bc drawing from ns.Derive(b),
// and per output element the block-row stripes summed from +0 in ascending
// block-row order — the digital merge. stored, when not nil, gives block
// (br, bc)'s stored levels (a fault-injected tile's levels).
func naiveTileMVM(cfg Config, w [][]float64, input []float64, ns noise.Source, stored func(br, bc int) []uint16) []float64 {
	rows, cols := len(w), len(w[0])
	brows, bcols := (rows+cfg.Rows-1)/cfg.Rows, (cols+cfg.Cols-1)/cfg.Cols
	out := make([]float64, cols) // +0
	for br := 0; br < brows; br++ {
		r0, r1 := br*cfg.Rows, min((br+1)*cfg.Rows, rows)
		for bc := 0; bc < bcols; bc++ {
			c0, c1 := bc*cfg.Cols, min((bc+1)*cfg.Cols, cols)
			sub := make([][]float64, r1-r0)
			for r := range sub {
				sub[r] = w[r0+r][c0:c1]
			}
			bns := NoNoise
			if ns.Valid() {
				bns = ns.Derive(uint64(br*bcols + bc))
			}
			var levels []uint16
			if stored != nil {
				levels = stored(br, bc)
			}
			for c, v := range naiveMVMStored(cfg, sub, input[r0:r1], bns, levels) {
				out[c0+c] += v
			}
		}
	}
	return out
}

// sameBits fails the test unless got and want are the same float64s bit for
// bit: == would let a merge that lost the sign of a zero through.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s col %d: tile %v (%#x) != oracle %v (%#x)", what, c,
				got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
		}
	}
}

// columnsOf is w given by columns: element [c][r] is w[r][c].
func columnsOf(w [][]float64) [][]float64 {
	cols := make([][]float64, len(w[0]))
	for c := range cols {
		cols[c] = make([]float64, len(w))
		for r, row := range w {
			cols[c][r] = row[c]
		}
	}
	return cols
}

// TestTileMatchesNaiveOracle pins the tile to naiveTileMVM bit for bit.
// Every other tile suite compares the tile with itself (batch against
// looped, width against width), which a self-consistent change of merge
// order, block keying or stripe placement passes. Grids 1×1, 2×2 and ragged
// 3×2, on 16² arrays and on the default 128² ones, each programmed through
// the row-major Program and through the column entry (Check); functional
// through both kernels, bit-serial, noisy with keyed sources, and fault-remapped; batches
// 1, 2, 3, 9 and 64 at pool widths 1, 2, 4 and 16, so both fan-out regimes
// (column-block groups while the batch is narrower than the pool, item
// chunks from there on) and the batch == width edge between them run every
// mode. The widths are set explicitly, and parallel.WidthFor takes an
// explicit width as set, so a 16² read splits at them however little work it
// is. The "underflow" mode is the sign of zero: weight and input scales
// whose product underflows make every block stripe ±0, and a merge that
// starts from +0 gives +0.
func TestTileMatchesNaiveOracle(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	type grid struct{ array, m, n int }
	grids := []grid{{16, 16, 16}, {16, 32, 32}, {16, 40, 30}, {128, 300, 200}}
	batches := []int{1, 2, 3, 9, 64}
	const items = 64
	for _, mode := range []string{"functional", "functional-go", "bit-serial", "noisy", "fault-remapped", "underflow"} {
		for _, g := range grids {
			if g.array == 128 && (mode == "fault-remapped" || mode == "underflow") {
				continue // nothing the 16² grids do not cover, at 60× the oracle's cost
			}
			t.Run(fmt.Sprintf("%s/%dx%d_on_%d", mode, g.m, g.n, g.array), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Rows, cfg.Cols = g.array, g.array
				switch mode {
				case "functional", "underflow":
					cfg.Functional = true
				case "functional-go":
					cfg.Functional = true
					defer goKernelOnly()()
				case "noisy":
					cfg.ReadNoise = 0.02
				case "fault-remapped":
					cfg.SpareCols = 4
				}
				// Each grid goes in through both entries, on a fresh tile each:
				// the row-major Program and the column entry (Check).
				for _, entry := range []string{"by_rows", "by_columns"} {
					t.Run(entry, func(t *testing.T) {
						tile, err := NewTile(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if mode == "fault-remapped" {
							if err := tile.SetFaults(faultinject.Model{StuckLowRate: 0.02, StuckHighRate: 0.01}, noise.NewSource(3)); err != nil {
								t.Fatal(err)
							}
						}
						rng := rand.New(rand.NewSource(int64(g.m*g.n + g.array)))
						w := randomMatrix(rng, g.m, g.n)
						ins := batchInputs(rng, items, g.m)
						if mode == "underflow" {
							for _, row := range append(w, ins...) {
								for i := range row {
									row[i] *= 1e-200
								}
							}
						}
						if entry == "by_columns" {
							ck, err := tile.Check(columnsOf(w))
							if err != nil {
								t.Fatal(err)
							}
							ck.Program(obs.Ctx{})
						} else if _, err := tile.Program(w); err != nil {
							t.Fatal(err)
						}
						var stored func(br, bc int) []uint16
						if mode == "fault-remapped" {
							if tile.FaultReport().StuckCells == 0 {
								t.Fatal("fault model injected no stuck cells; the case is vacuous")
							}
							stored = func(br, bc int) []uint16 { return storedLevels(tile.blocks[br][bc]) }
						}
						var nss []noise.Source
						if mode == "noisy" {
							nss = perItemSources(noise.NewSource(7), items)
						}
						bias := randomVector(rng, g.n)
						want := make([][]float64, items)
						wantFinished := make([][]float64, items)
						for i, in := range ins {
							ns := NoNoise
							if nss != nil {
								ns = nss[i]
							}
							want[i] = naiveTileMVM(cfg, w, in, ns, stored)
							wantFinished[i] = make([]float64, g.n)
							for c, v := range want[i] {
								wantFinished[i][c] = max(v+bias[c], 0)
							}
						}
						if mode == "underflow" {
							for _, v := range want[0] {
								if math.Float64bits(v) != 0 {
									t.Fatalf("the oracle's underflowed output is %v (%#x), not +0; the case is vacuous", v, math.Float64bits(v))
								}
							}
						}

						for _, width := range []int{1, 2, 4, 16} {
							parallel.SetWidth(width)
							for _, bsz := range batches {
								var bnss []noise.Source
								if nss != nil {
									bnss = nss[:bsz]
								}
								what := fmt.Sprintf("width=%d batch=%d", width, bsz)
								got, _, err := tile.MVMBatch(ins[:bsz], bnss)
								if err != nil {
									t.Fatal(err)
								}
								for i := range got {
									sameBits(t, fmt.Sprintf("%s item %d", what, i), got[i], want[i])
								}

								// The same read with a finish — bias, then ReLU — into a
								// dirty panel: every element finished exactly once, after
								// its last block row.
								visits := make([][]int, bsz)
								for i := range got {
									visits[i] = make([]int, g.n)
									for c := range got[i] {
										got[i][c] = math.NaN()
									}
								}
								finish := func(c0 int, stripe []float64) {
									for j := range stripe {
										stripe[j] = max(stripe[j]+bias[c0+j], 0)
									}
								}
								counted := func(c0 int, stripe []float64) {
									finish(c0, stripe)
									for i := range got {
										if &got[i][c0] == &stripe[0] {
											for j := range stripe {
												visits[i][c0+j]++
											}
										}
									}
								}
								if _, err := tile.MVMBatchIntoCtx(obs.Ctx{}, got, ins[:bsz], bnss, counted); err != nil {
									t.Fatal(err)
								}
								for i := range got {
									sameBits(t, fmt.Sprintf("%s finished item %d", what, i), got[i], wantFinished[i])
									for c, v := range visits[i] {
										if v != 1 {
											t.Fatalf("%s item %d col %d: finished %d times, want once", what, i, c, v)
										}
									}
								}
							}
						}
					})
				}
			})
		}
	}
}
