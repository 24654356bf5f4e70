package crossbar

// Batch-size invariance suite: an item's output must not depend on the
// batch it rides in, so MVMBatchInto / Tile.MVMBatch at batch n
// must be bit-identical to n calls at batch 1 (MVMInto, Tile.MVM) —
// functional, bit-serial in 1- and 2-bit cells, noisy keyed and unkeyed,
// fault-remapped tiles, ragged final item blocks, and the batch = 0/1
// edges — plus the zero-allocation and mixed-shape scratch contracts.
// kernel_test.go pins batches 1 to 9 to the naive oracle.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/parallel"
)

// batchInputs builds n deterministic random input vectors of length dim.
func batchInputs(rng *rand.Rand, n, dim int) [][]float64 {
	ins := make([][]float64, n)
	for i := range ins {
		ins[i] = randomVector(rng, dim)
	}
	return ins
}

// mvm is MVMInto into a fresh result vector.
func mvm(x *Crossbar, input []float64, ns noise.Source) ([]float64, energy.Cost, error) {
	dst := make([]float64, x.usedCols)
	cost, err := x.MVMInto(dst, input, ns)
	if err != nil {
		return nil, energy.Zero, err
	}
	return dst, cost, nil
}

// mvmBatch is MVMBatchInto into a fresh result panel.
func mvmBatch(x *Crossbar, inputs [][]float64, nss []noise.Source) ([][]float64, energy.Cost, error) {
	dsts := newPanel(len(inputs), x.usedCols)
	cost, err := x.MVMBatchInto(dsts, inputs, nss)
	if err != nil {
		return nil, energy.Zero, err
	}
	return dsts, cost, nil
}

// perItemSources derives one noise source per item from a root, the way
// the DPE keys item i to stream seqs[i].
func perItemSources(root noise.Source, n int) []noise.Source {
	nss := make([]noise.Source, n)
	for i := range nss {
		nss[i] = root.Derive(uint64(i))
	}
	return nss
}

// TestMVMBatchMatchesLoopedMVMInto is the batch-size invariance contract:
// across functional, bit-serial on the default block (CellBits 2) and
// through the general plane loop (CellBits 1 → 8 slices), noise on/off,
// odd shapes, and batch sizes around the functional kernel's item-block
// boundaries, one call at batch n must equal n MVMInto calls (batch 1)
// with ==.
func TestMVMBatchMatchesLoopedMVMInto(t *testing.T) {
	shapes := []struct{ m, n int }{
		{16, 16},
		{13, 7}, // odd remainders
		{1, 9},  // single row
	}
	batches := []int{0, 1, 2, 3, 5, 17} // 17 > one item block at 16 rows? exercises ragged blocks
	for _, functional := range []bool{false, true} {
		for _, cellBits := range []int{1, 2} {
			for _, sigma := range []float64{0, 0.03} {
				if functional && sigma > 0 {
					continue // functional mode has no noise path
				}
				for _, sh := range shapes {
					for _, bsz := range batches {
						cfg := DefaultConfig()
						cfg.Rows, cfg.Cols = 16, 16
						cfg.CellBits = cellBits
						cfg.Functional = functional
						cfg.ReadNoise = sigma

						rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.n*10 + cellBits + bsz)))
						w := randomMatrix(rng, sh.m, sh.n)
						ins := batchInputs(rng, bsz, sh.m)

						xb, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := xb.Program(w); err != nil {
							t.Fatal(err)
						}
						var nss []noise.Source
						if sigma > 0 {
							nss = perItemSources(noise.NewSource(99), bsz)
						}

						// Batch of one per item, with item i's source.
						want := make([][]float64, bsz)
						var wantCost, gotCost [2]int64
						for i := 0; i < bsz; i++ {
							ns := NoNoise
							if nss != nil {
								ns = nss[i]
							}
							want[i] = make([]float64, sh.n)
							c, err := xb.MVMInto(want[i], ins[i], ns)
							if err != nil {
								t.Fatal(err)
							}
							wantCost = [2]int64{c.LatencyPS, int64(c.EnergyPJ)}
						}

						got, cost, err := mvmBatch(xb, ins, nss)
						if err != nil {
							t.Fatal(err)
						}
						gotCost = [2]int64{cost.LatencyPS, int64(cost.EnergyPJ)}
						if bsz > 0 && gotCost != wantCost {
							t.Fatalf("per-item batch cost %v != single MVM cost %v", gotCost, wantCost)
						}
						if len(got) != bsz {
							t.Fatalf("batch output count %d != %d", len(got), bsz)
						}
						for i := range want {
							for c := range want[i] {
								if got[i][c] != want[i][c] {
									t.Fatalf("functional=%v cell=%d sigma=%g shape=%dx%d batch=%d item %d col %d: batch %v != looped %v",
										functional, cellBits, sigma, sh.m, sh.n, bsz, i, c, got[i][c], want[i][c])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMVMBatchMatchesNaiveOracle closes the loop to the naive reference
// at a batch size past TestKernelMatchesNaiveOracle's: batched outputs
// equal naiveMVM per item, noisy keyed included.
func TestMVMBatchMatchesNaiveOracle(t *testing.T) {
	for _, sigma := range []float64{0, 0.02} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 16, 16
		cfg.ReadNoise = sigma
		rng := rand.New(rand.NewSource(5))
		w := randomMatrix(rng, 16, 16)
		const bsz = 6
		ins := batchInputs(rng, bsz, 16)

		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		var nss []noise.Source
		if sigma > 0 {
			nss = perItemSources(noise.NewSource(42), bsz)
		}
		got, _, err := mvmBatch(xb, ins, nss)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < bsz; i++ {
			ns := NoNoise
			if nss != nil {
				ns = nss[i]
			}
			want := naiveMVM(cfg, w, ins[i], ns)
			for c := range want {
				if got[i][c] != want[c] {
					t.Fatalf("sigma=%g item %d col %d: batch %v != naive oracle %v", sigma, i, c, got[i][c], want[c])
				}
			}
		}
	}
}

// TestTileMVMBatchMatchesLoopedMVM: the tile dispatch (block × item-chunk
// fan-out, derived per-block noise, fixed-order merge) is batch-size and
// chunking invariant: one MVMBatch of n equals n Tile.MVM calls (batch 1)
// — including multi-block shapes with ragged remainder blocks — at pool
// widths 1, 4, and 16.
func TestTileMVMBatchMatchesLoopedMVM(t *testing.T) {
	t.Cleanup(func() { parallel.SetWidth(0) })
	shapes := []struct{ m, n int }{
		{16, 16}, // single block
		{40, 23}, // 3x2 grid with ragged remainders
	}
	for _, sigma := range []float64{0, 0.02} {
		for _, sh := range shapes {
			for _, width := range []int{1, 4, 16} {
				parallel.SetWidth(width)
				cfg := DefaultConfig()
				cfg.Rows, cfg.Cols = 16, 16
				cfg.ReadNoise = sigma
				tile, err := NewTile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(sh.m + sh.n)))
				if _, err := tile.Program(randomMatrix(rng, sh.m, sh.n)); err != nil {
					t.Fatal(err)
				}
				const bsz = 9
				ins := batchInputs(rng, bsz, sh.m)
				var nss []noise.Source
				if sigma > 0 {
					nss = perItemSources(noise.NewSource(7), bsz)
				}

				want := make([][]float64, bsz)
				var wantCost [2]float64
				for i := range ins {
					ns := NoNoise
					if nss != nil {
						ns = nss[i]
					}
					out, c, err := tile.MVM(ins[i], ns)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = out
					wantCost = [2]float64{float64(c.LatencyPS), c.EnergyPJ}
				}
				got, cost, err := tile.MVMBatch(ins, nss)
				if err != nil {
					t.Fatal(err)
				}
				if g := [2]float64{float64(cost.LatencyPS), cost.EnergyPJ}; g != wantCost {
					t.Fatalf("width=%d: per-item tile batch cost %v != single cost %v", width, g, wantCost)
				}
				for i := range want {
					for c := range want[i] {
						if got[i][c] != want[i][c] {
							t.Fatalf("sigma=%g shape=%dx%d width=%d item %d col %d: %v != %v",
								sigma, sh.m, sh.n, width, i, c, got[i][c], want[i][c])
						}
					}
				}
			}
		}
	}
}

// TestMVMBatchFaultRemappedTile: the batched path runs unmodified over
// fault-remapped arrays (remaps resolve at Program time into the stored
// levels), so batch n ≡ n × batch 1 must hold on a tile that has consumed
// spares.
func TestMVMBatchFaultRemappedTile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	cfg.SpareCols = 4
	tile, err := NewTile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := faultinject.Model{StuckLowRate: 0.02, StuckHighRate: 0.01}
	if err := tile.SetFaults(model, noise.NewSource(3)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	if _, err := tile.Program(randomMatrix(rng, 30, 20)); err != nil {
		t.Fatal(err)
	}
	if rep := tile.FaultReport(); rep.StuckCells == 0 {
		t.Fatal("fault model injected no stuck cells; test is vacuous")
	}
	const bsz = 7
	ins := batchInputs(rng, bsz, 30)
	want := make([][]float64, bsz)
	for i := range ins {
		out, _, err := tile.MVM(ins[i], NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	got, _, err := tile.MVMBatch(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("fault-remapped item %d col %d: batch %v != looped %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestMVMBatchIntoZeroAlloc is the steady-state allocation contract for
// the kernel: after the first call warms the scratch pool, MVMBatchInto
// must not allocate at any batch size — functional through either kernel,
// bit-serial and noisy (the 16-bit input panel, the mask arena and the draw
// fill come out of the pooled scratch).
func TestMVMBatchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop items, so alloc counts are unreliable")
	}
	for _, mode := range zeroAllocModes {
		for _, bsz := range []int{1, 8, 32} {
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
			ins := batchInputs(rng, bsz, 64)
			slab := make([]float64, bsz*64)
			dsts := make([][]float64, bsz)
			for i := range dsts {
				dsts[i] = slab[i*64 : (i+1)*64]
			}
			var nss []noise.Source
			if mode.sigma > 0 {
				nss = perItemSources(noise.NewSource(3), bsz)
			}
			if _, err := xb.MVMBatchInto(dsts, ins, nss); err != nil {
				t.Fatal(err) // warm the pool
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := xb.MVMBatchInto(dsts, ins, nss); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s batch=%d: MVMBatchInto allocates %g objects/op, want 0", mode.name, bsz, allocs)
			}
		}
	}
}

// zeroAllocModes are the kernel configurations the allocation and
// concurrency contracts run: functional at the default 8 input bits (the
// vector kernel where the host has it) and at 16 (functionalGEMM on every
// host), the bit-serial kernel, and the bit-serial kernel drawing noise.
var zeroAllocModes = []struct {
	name       string
	functional bool
	inputBits  int
	sigma      float64
}{
	{"functional", true, 8, 0},
	{"functional, 16 input bits", true, 16, 0},
	{"bit-serial", false, 8, 0},
	{"noisy", false, 8, 0.02},
}

// TestMVMBatchValidation: every batch-shape and noise precondition fails
// before scratch acquisition, and a non-finite input before any dst is
// written (testNonFinite).
func TestMVMBatchValidation(t *testing.T) {
	t.Run("non-finite", testNonFinite)
	cfg := smallConfig()
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mvmBatch(xb, [][]float64{{1, 1}}, nil); err == nil {
		t.Error("MVMBatch before Program should fail")
	}
	if _, err := xb.Program([][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	ok := [][]float64{{1, 1}, {0.5, -0.5}}
	if _, err := xb.MVMBatchInto([][]float64{make([]float64, 2)}, ok, nil); err == nil {
		t.Error("dst/input count mismatch should fail")
	}
	if _, err := xb.MVMBatchInto([][]float64{make([]float64, 3), make([]float64, 2)}, ok, nil); err == nil {
		t.Error("wrong dst length should fail")
	}
	if _, _, err := mvmBatch(xb, [][]float64{{1, 1, 1}}, nil); err == nil {
		t.Error("wrong input length should fail")
	}
	if _, _, err := mvmBatch(xb, ok, make([]noise.Source, 1)); err == nil {
		t.Error("noise source count mismatch should fail")
	}
	if _, _, err := mvmBatch(xb, [][]float64{{math.NaN(), 1}}, nil); err == nil {
		t.Error("non-finite input should fail")
	}

	noisy := smallConfig()
	noisy.ReadNoise = 0.05
	xn, err := New(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xn.Program([][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mvmBatch(xn, ok, nil); err == nil {
		t.Error("noisy batch without sources should fail")
	}
	if _, _, err := mvmBatch(xn, ok, make([]noise.Source, 2)); err == nil {
		t.Error("noisy batch with invalid (zero) sources should fail")
	}
	// Empty batch: a successful no-op even on a noisy config.
	if _, err := xn.MVMBatchInto(nil, nil, nil); err != nil {
		t.Errorf("empty batch should succeed, got %v", err)
	}
}

// TestScratchReuseAcrossReshapes is the mixed-shape scratch-pool audit
// regression: one crossbar reprogrammed across different shapes (and one
// tile reshaped across block grids) must keep handing back correctly
// sized scratch from its pools — results stay oracle-exact on every
// interleaving, single-vector and batched, and no stale capacity, length
// or content from a larger earlier shape can leak into a smaller one (or
// vice versa). The bit-serial crossbars shrink and regrow the mask arena in
// rows (one to three 128-row steps and back), in batch, and — one pool per
// crossbar — at 3, 8 and 16 input bits; the masks are OR-built, so a word
// left uncleared by a larger call would break == here. The 16-input-bit
// functional crossbar is functionalGEMM's on every host, and its reshapes
// cross the lane bound, so its reused weight panel changes layout each round.
// The 8-input-bit one is the vector kernel's where the host has it: 128 → 20
// → 128 rows and back through a padded tail past 128 and a lone row, 130 → 10
// → 8 columns and on through one to three pad columns, batches shrinking and
// growing, even and odd, on one store of levels, one pooled 16-bit input arena
// and one accumulator arena whose stride follows the padded column count
// (assertLanes) — and last 130 → 10 columns on 128 rows, the benchmark MLP's
// last layer after a full-width block, so the two pad columns of colOffset
// the routine reads hold the wider shape's offsets. The kernel sums whatever
// the rows past usedRows hold in levels and in the input panel and whatever
// levels' columns past usedCols hold, so all three pads are checked for
// zeros after every round as well as the outputs.
func TestScratchReuseAcrossReshapes(t *testing.T) {
	type shape struct{ m, n, lanes, batch int } // lanes: functional panel only
	serial := []shape{{300, 8, 0, 5}, {5, 7, 0, 9}, {129, 3, 0, 1}, {64, 8, 0, 7}, {257, 5, 0, 2}, {128, 2, 0, 9}}
	type reshapes struct {
		cfg    Config
		shapes []shape
	}
	var cases []reshapes
	for _, inputBits := range []int{3, 8, 16} {
		bitSerial := DefaultConfig()
		bitSerial.Rows, bitSerial.Cols = 300, 8
		bitSerial.InputBits = inputBits
		cases = append(cases, reshapes{bitSerial, serial})
	}
	// Functional at 16 input bits: 257 rows is the last two-lane shape
	// (255·65535·257 ≤ 2^32−1), so reprogramming walks the fused panel
	// two-lane → one-lane → two-lane → one-lane, shrinking and regrowing it.
	functional := DefaultConfig()
	functional.Rows, functional.Cols = 300, 8
	functional.InputBits = 16
	functional.Functional = true
	cases = append(cases, reshapes{functional, []shape{{257, 5, 2, 5}, {300, 8, 1, 5}, {40, 3, 2, 5}, {258, 7, 1, 5}}})
	functional.InputBits, functional.Cols = 8, 130
	cases = append(cases, reshapes{functional, []shape{{128, 130, 2, 9}, {20, 10, 2, 3}, {128, 8, 2, 9}, {300, 5, 2, 1}, {1, 7, 2, 12}, {17, 2, 2, 3}, {128, 130, 2, 5}, {128, 10, 2, 64}}})
	rng := rand.New(rand.NewSource(21))
	for _, tc := range cases {
		cfg := tc.cfg
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round, sh := range tc.shapes {
			w := randomMatrix(rng, sh.m, sh.n)
			if _, err := xb.Program(w); err != nil {
				t.Fatal(err)
			}
			if cfg.Functional {
				assertLanes(t, sh.lanes)(xb)
			} else {
				assertPlanes(t)(xb)
			}
			ins := batchInputs(rng, sh.batch, sh.m)
			got, _, err := mvmBatch(xb, ins, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ins {
				single, _, err := mvm(xb, ins[i], NoNoise)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveMVM(cfg, w, ins[i], NoNoise)
				for c := range want {
					if got[i][c] != want[c] || single[c] != want[c] {
						t.Fatalf("functional=%v input=%d round %d shape %dx%d item %d col %d: batch %v single %v oracle %v",
							cfg.Functional, cfg.InputBits, round, sh.m, sh.n, i, c, got[i][c], single[c], want[c])
					}
				}
			}
			if xb.vectorKernel() {
				if _, _, err := mvmBatch(xb, ins, nil); err != nil { // the scratch's latest call is the batch again
					t.Fatal(err)
				}
				s := xb.getScratch()
				assertPadsZero(t, xb, s, sh.batch)
				xb.batchScratch.Put(s)
			}
		}
	}

	// Tile reshape: one tile walked across block grids — one block, 2×2 with
	// a narrower last column block (16 + 14), 3×2 with a 7-wide one under an
	// 8-row last block row, and back — at growing and shrinking batches, so
	// the pooled view arenas cross groupings and each row block's one shared
	// quantize scratch serves column blocks of different widths (acc is the
	// multiply's to size, per block). Oracle-exact on every round, functional
	// and bit-serial, at a pool wider and narrower than the batch.
	t.Cleanup(func() { parallel.SetWidth(0) })
	for _, functional := range []bool{false, true} {
		cfg := smallTileConfig()
		cfg.Functional = functional
		tile, err := NewTile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round, sh := range []struct{ m, n, batch int }{{8, 8, 3}, {30, 30, 9}, {40, 23, 2}, {30, 30, 1}, {8, 8, 5}} {
			w := randomMatrix(rng, sh.m, sh.n)
			if _, err := tile.Program(w); err != nil {
				t.Fatal(err)
			}
			ins := batchInputs(rng, sh.batch, sh.m)
			for _, width := range []int{4, 1} {
				parallel.SetWidth(width)
				got, _, err := tile.MVMBatch(ins, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ins {
					sameBits(t, fmt.Sprintf("tile functional=%v round %d shape %dx%d width %d item %d", functional, round, sh.m, sh.n, width, i),
						got[i], naiveTileMVM(cfg, w, ins[i], NoNoise, nil))
				}
			}
		}
	}
}

// smallTileConfig returns a 16x16-array tile config for reshape tests.
func smallTileConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	return cfg
}

// TestMVMBatchConcurrent: a programmed crossbar may serve concurrent
// batched MVMs — the batch pool must hand each goroutine its own arena
// (the functional kernels' input panels; masks, column sums and, on the
// noisy configuration, draws).
func TestMVMBatchConcurrent(t *testing.T) {
	for _, mode := range zeroAllocModes {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 24, 24
		cfg.Functional, cfg.InputBits, cfg.ReadNoise = mode.functional, mode.inputBits, mode.sigma
		sigma := mode.sigma
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		w := randomMatrix(rng, 24, 24)
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		ins := batchInputs(rng, 6, 24)
		var nss []noise.Source
		if sigma > 0 {
			nss = perItemSources(noise.NewSource(9), len(ins))
		}
		want, _, err := mvmBatch(xb, ins, nss)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				for k := 0; k < 20; k++ {
					got, _, err := mvmBatch(xb, ins, nss)
					if err != nil {
						errc <- err
						return
					}
					for i := range want {
						for c := range want[i] {
							if got[i][c] != want[i][c] {
								errc <- fmt.Errorf("%s: concurrent batch diverged at item %d col %d", mode.name, i, c)
								return
							}
						}
					}
				}
				errc <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	}
}
