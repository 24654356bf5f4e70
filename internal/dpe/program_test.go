package dpe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cimrev/internal/crossbar"
	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/nn"
)

// im2col is the (Kh*Kw*C) x F matrix a conv layer's filters lower to, row
// (ky*Kw+kx)*C+c and column f holding K[f][ky][kx][c]: the row-major
// lowering, the reference FilterColumns is held to.
func im2col(l *nn.Conv2D) [][]float64 {
	m := make([][]float64, l.Kh*l.Kw*l.C)
	for r := range m {
		m[r] = make([]float64, l.F)
	}
	for f := 0; f < l.F; f++ {
		for ky := 0; ky < l.Kh; ky++ {
			for kx := 0; kx < l.Kw; kx++ {
				for c := 0; c < l.C; c++ {
					m[(ky*l.Kw+kx)*l.C+c][f] = l.K[f][ky][kx][c]
				}
			}
		}
	}
	return m
}

// convNet is a three-channel conv stage whose 27 filter rows span two
// block rows of a 16-row array, then a dense stage over its outputs.
func convNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv, err := nn.NewConv2D(6, 6, 3, 5, 3, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	relu, err := nn.NewActivation(nn.ActReLU, conv.OutSize())
	if err != nil {
		t.Fatal(err)
	}
	d, err := nn.NewDense(conv.OutSize(), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("conv", conv, relu, d)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestLoadColumnsMatchRowMajor: Load, first and again on the loaded engine
// (a same-shape reprogram), which hands each tile the layer's own columns
// (Dense.W, Conv2D.FilterColumns), leaves every stage tile equal — every stored level, bit plane, weight panel, column
// offset, fault report and wear count, by reflect.DeepEqual — to a tile of
// the same fault key programmed through the row-major entry with the
// transposed matrix (Dense.WeightMatrix, im2col), and charge the same cost:
// for dense and conv stages over multi-block grids, functional and
// bit-serial, with faults off and on.
func TestLoadColumnsMatchRowMajor(t *testing.T) {
	for _, mode := range []string{"functional", "bit-serial"} {
		for _, faulty := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Crossbar.Rows, cfg.Crossbar.Cols = 16, 16
			cfg.Crossbar.SpareCols = 2
			if mode == "bit-serial" {
				cfg.Crossbar.Functional = false
				cfg.Crossbar.ReadNoise = 0.01
			}
			if faulty {
				cfg.Faults = faultinject.Model{StuckLowRate: 0.002, WriteFailRate: 0.05, Seed: 40}
			}
			nets := map[string][2]*nn.Network{
				"mlp":  {mlp(t, 40, 35, 10), mlpSeeded(t, 9, 40, 35, 10)},
				"conv": {convNet(t, 1), convNet(t, 2)},
			}
			for name, pair := range nets {
				t.Run(fmt.Sprintf("%s %s faults=%v", name, mode, faulty), func(t *testing.T) {
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					refs := map[int]*crossbar.Tile{}
					for step, net := range pair {
						cost, err := e.Load(net)
						if err != nil {
							t.Fatal(err)
						}
						want := energy.Zero
						for i := range e.stages {
							s := &e.stages[i]
							if s.tile == nil {
								continue
							}
							ref := refs[i]
							if ref == nil {
								if ref, err = e.newTile(i); err != nil {
									t.Fatal(err)
								}
								refs[i] = ref
							}
							c, err := ref.Program(rowMajor(s))
							if err != nil {
								t.Fatal(err)
							}
							if s.conv != nil {
								c.EnergyPJ *= float64(cfg.ConvReplicas)
							}
							want = want.Par(c)
							if !reflect.DeepEqual(s.tile, ref) {
								t.Fatalf("step %d stage %d (%s): the tile programmed from the layer's columns differs from the row-major one", step, i, s.layer.Name())
							}
						}
						if cost != want {
							t.Fatalf("step %d: cost %+v, row-major %+v", step, cost, want)
						}
					}
				})
			}
		}
	}
}

// rowMajor is the in x out matrix of a crossbar stage.
func rowMajor(s *stage) [][]float64 {
	if s.conv != nil {
		return im2col(s.conv)
	}
	return s.dense.layer.WeightMatrix()
}

func mlpSeeded(t *testing.T, seed int64, sizes ...int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP("mlp", sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRejectedWeightsWriteNothing: a network with a NaN in its last layer
// fails a Load of the loaded engine, and the engine then serves the network
// it held with == outputs and unchanged wear — no layer was written before
// the bad one was found.
func TestRejectedWeightsWriteNothing(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Load(mlp(t, 32, 24, 10)); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 32)
	for i := range in {
		in[i] = math.Sin(float64(i))
	}
	want, _, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	wear := e.Wear()
	bad := mlpSeeded(t, 7, 32, 24, 10)
	last := bad.Layers[len(bad.Layers)-2].(*nn.Dense)
	last.W[3][5] = math.NaN()
	if _, err := e.Load(bad); err == nil {
		t.Fatal("Load accepted a NaN weight")
	}
	got, _, err := e.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v after a rejected write, %v before", i, got[i], want[i])
		}
	}
	if e.Wear() != wear {
		t.Fatalf("a rejected write changed wear: %d -> %d", wear, e.Wear())
	}
}

// TestLoadAllocs: a same-shape Load of the repository benchmark's 256-wide
// MLP allocates under 128 KB — the arrays are written from the layers'
// own weights, with no transposed copy (which alone would be 2.4 MB) — and a
// fresh engine's first Load, which allocates the arrays, under 1 MiB: each
// array stores its weights once (a second copy in the vector kernel's layout
// took 1.34 MB in all).
func TestLoadAllocs(t *testing.T) {
	cfg := DefaultConfig()
	net, err := nn.NewMLP("big", []int{256, 256, 256, 256, 256, 128, 10}, rand.New(rand.NewSource(4242)))
	if err != nil {
		t.Fatal(err)
	}
	load := func(e *Engine) {
		if _, err := e.Load(net); err != nil {
			t.Fatal(err)
		}
	}
	// bytesPer is what one call of f allocates, averaged over five.
	bytesPer := func(f func()) uint64 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	load(e)
	if perLoad := bytesPer(func() { load(e) }); perLoad >= 128<<10 {
		t.Errorf("a same-shape Load allocates %d bytes, want under %d", perLoad, 128<<10)
	}
	if perFresh := bytesPer(func() {
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		load(fresh)
	}); perFresh >= 1<<20 {
		t.Errorf("a fresh engine and its first Load allocate %d bytes, want under %d", perFresh, 1<<20)
	}
}
