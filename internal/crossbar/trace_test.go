package crossbar

import (
	"math/rand"
	"reflect"
	"testing"

	"cimrev/internal/noise"
	"cimrev/internal/obs"
)

// benchCrossbar builds a programmed n x n crossbar plus a matching input
// and destination buffer.
func benchCrossbar(tb testing.TB, n int) (*Crossbar, []float64, []float64) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = n, n
	xb, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = rng.Float64()*2 - 1
		}
	}
	if _, err := xb.Program(w); err != nil {
		tb.Fatal(err)
	}
	in := make([]float64, n)
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	return xb, in, make([]float64, n)
}

// read is the traced read a tile makes per block (Tile.mvmBatch): quantize
// the inputs once, then multiplyCtx under pc, storing into dsts.
func read(xb *Crossbar, pc obs.Ctx, dsts, inputs [][]float64, nss []noise.Source) error {
	s := xb.getScratch()
	defer xb.batchScratch.Put(s)
	if err := xb.quantize(s, inputs); err != nil {
		return err
	}
	xb.multiplyCtx(pc, s, dsts, nss, store)
	return nil
}

// TestMVMTracingOffZeroAllocs pins the overhead contract from
// docs/OBSERVABILITY.md: the read a tile makes per block, with tracing
// disabled (zero obs.Ctx, from a nil tracer), must allocate nothing — the
// hot loop pays only a couple of nil-check branches.
func TestMVMTracingOffZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	xb, in, dst := benchCrossbar(t, 128)
	dsts, inputs := [][]float64{dst}, [][]float64{in}
	var tr *obs.Tracer // disabled
	// Warm the scratch pool first: the first read allocates its scratch.
	if err := read(xb, tr.Root("warm"), dsts, inputs, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := read(xb, tr.Root("xbar.mvm_batch"), dsts, inputs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("read with tracing off allocates %.1f per op, want 0", allocs)
	}
}

// TestMVMTracedBitIdentical: tracing must not perturb the kernel — the
// traced read's outputs and per-item cost equal the untraced
// MVMBatchInto's exactly, and the recorded xbar.mvm_batch span carries that
// exact cost for the whole batch.
func TestMVMTracedBitIdentical(t *testing.T) {
	const batch = 3
	for _, mode := range []string{"bitserial", "noisy"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Rows, cfg.Cols = 64, 64
			if mode == "noisy" {
				cfg.ReadNoise = 0.02
			}
			mk := func() *Crossbar {
				xb, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(11))
				w := make([][]float64, 64)
				for i := range w {
					w[i] = make([]float64, 64)
					for j := range w[i] {
						w[i][j] = rng.Float64()*2 - 1
					}
				}
				if _, err := xb.Program(w); err != nil {
					t.Fatal(err)
				}
				return xb
			}
			inputs := make([][]float64, batch)
			nss := make([]noise.Source, batch)
			for k := range inputs {
				inputs[k] = make([]float64, 64)
				for i := range inputs[k] {
					inputs[k][i] = float64((i+5*k)%13)/6.5 - 1
				}
				nss[k] = noise.NewSource(int64(3 + k))
			}

			want := newPanel(batch, 64)
			wantCost, err := mk().MVMBatchInto(want, inputs, nss)
			if err != nil {
				t.Fatal(err)
			}

			tr := obs.New()
			xb := mk()
			got := newPanel(batch, 64)
			root := tr.Root("run.mvm_batch")
			if err := read(xb, root, got, inputs, nss); err != nil {
				t.Fatal(err)
			}
			root.End(xb.cost)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("traced read output differs from untraced")
			}
			if xb.cost != wantCost {
				t.Fatalf("traced cost %+v != untraced %+v", xb.cost, wantCost)
			}
			spans := tr.Snapshot()
			found := false
			for _, s := range spans {
				if s.Name == "xbar.mvm_batch" && s.Cost == wantCost.Scale(batch) &&
					reflect.DeepEqual(s.Notes, []obs.Note{{Key: "batch", Val: batch}}) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no xbar.mvm_batch span carrying the exact batch cost (spans: %d)", len(spans))
			}
		})
	}
}

// BenchmarkCrossbarMVMTracingOff measures the read a tile makes per block
// with tracing disabled against the same read untraced — the
// disabled-tracer overhead budget (<5%, 0 allocs) that
// docs/OBSERVABILITY.md promises.
func BenchmarkCrossbarMVMTracingOff(b *testing.B) {
	for _, n := range []int{64, 256} {
		xb, in, dst := benchCrossbar(b, n)
		dsts, inputs := [][]float64{dst}, [][]float64{in}
		b.Run(sizeName("plain", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := xb.getScratch()
				if err := xb.quantize(s, inputs); err != nil {
					b.Fatal(err)
				}
				xb.multiply(s, dsts, nil, store)
				xb.batchScratch.Put(s)
			}
		})
		b.Run(sizeName("ctx_off", n), func(b *testing.B) {
			var tr *obs.Tracer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := read(xb, tr.Root("xbar.mvm_batch"), dsts, inputs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossbarMVMTracingOn is the enabled-tracer counterpart: every
// read records a root span and its xbar.mvm_batch child, showing the full
// recording cost next to the disabled path.
func BenchmarkCrossbarMVMTracingOn(b *testing.B) {
	xb, in, dst := benchCrossbar(b, 256)
	dsts, inputs := [][]float64{dst}, [][]float64{in}
	tr := obs.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("bench.mvm")
		err := read(xb, sp, dsts, inputs, nil)
		sp.End(xb.cost)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() > 1<<20 {
			b.StopTimer()
			tr = obs.New()
			b.StartTimer()
		}
	}
}

func sizeName(kind string, n int) string {
	return kind + "_" + itoa(n) + "x" + itoa(n)
}

// itoa avoids pulling strconv into the benchmark's hot file for two call
// sites.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
