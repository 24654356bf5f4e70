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

// TestMVMTracingOffZeroAllocs pins the overhead contract from
// docs/OBSERVABILITY.md: the Ctx-threaded MVM path with tracing disabled
// (zero obs.Ctx, from a nil tracer) must allocate nothing — the hot loop
// pays only a couple of nil-check branches.
func TestMVMTracingOffZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	xb, in, dst := benchCrossbar(t, 128)
	ns := noise.NewSource(1)
	var tr *obs.Tracer // disabled
	// Warm the scratch pool first: the first MVM allocates its scratch.
	if _, err := xb.MVMIntoCtx(tr.Root("warm"), dst, in, ns); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := xb.MVMIntoCtx(tr.Root("xbar.mvm"), dst, in, ns); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MVM with tracing off allocates %.1f per op, want 0", allocs)
	}
}

// TestMVMTracedBitIdentical: tracing must not perturb the kernel — the
// traced MVM's outputs and cost equal the untraced ones exactly, and the
// recorded span carries that exact cost.
func TestMVMTracedBitIdentical(t *testing.T) {
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
			in := make([]float64, 64)
			for i := range in {
				in[i] = float64(i%13)/6.5 - 1
			}

			ref := mk()
			want, wantCost, err := mvm(ref, in, noise.NewSource(3))
			if err != nil {
				t.Fatal(err)
			}

			tr := obs.New()
			xb := mk()
			got := make([]float64, 64)
			root := tr.Root("run.mvm")
			gotCost, err := xb.MVMIntoCtx(root, got, in, noise.NewSource(3))
			root.End(gotCost)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("traced MVM output differs from untraced")
			}
			if gotCost != wantCost {
				t.Fatalf("traced cost %+v != untraced %+v", gotCost, wantCost)
			}
			spans := tr.Snapshot()
			found := false
			for _, s := range spans {
				if s.Name == "xbar.mvm" && s.Cost == wantCost {
					found = true
				}
			}
			if !found {
				t.Fatalf("no xbar.mvm span carrying the exact kernel cost (spans: %d)", len(spans))
			}
		})
	}
}

// BenchmarkCrossbarMVMTracingOff measures the Ctx-threaded MVM hot path
// with tracing disabled against the plain path — the disabled-tracer
// overhead budget (<5%, 0 allocs) that docs/OBSERVABILITY.md promises.
// `make bench-obs` records the wall-clock side of the same budget.
func BenchmarkCrossbarMVMTracingOff(b *testing.B) {
	for _, n := range []int{64, 256} {
		xb, in, dst := benchCrossbar(b, n)
		ns := noise.NewSource(1)
		b.Run(sizeName("plain", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xb.MVMInto(dst, in, ns); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("ctx_off", n), func(b *testing.B) {
			var tr *obs.Tracer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xb.MVMIntoCtx(tr.Root("xbar.mvm"), dst, in, ns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossbarMVMTracingOn is the enabled-tracer counterpart: every
// MVM records a root span (with per-block children), showing the full
// recording cost next to the disabled path.
func BenchmarkCrossbarMVMTracingOn(b *testing.B) {
	xb, in, dst := benchCrossbar(b, 256)
	ns := noise.NewSource(1)
	tr := obs.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("bench.mvm")
		cost, err := xb.MVMIntoCtx(sp, dst, in, ns)
		sp.End(cost)
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
