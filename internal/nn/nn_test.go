package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestActivationValidation(t *testing.T) {
	if _, err := NewActivation(ActReLU, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewActivation(Activation(99), 4); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestActivationForward(t *testing.T) {
	in := []float64{-1, 0, 2}

	relu, err := NewActivation(ActReLU, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relu.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("relu[%d] = %g, want %g", i, got[i], want[i])
		}
	}

	sig, err := NewActivation(ActSigmoid, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err = sig.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[1]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %g", got[1])
	}

	tanh, err := NewActivation(ActTanh, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err = tanh.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[2]-math.Tanh(2)) > 1e-12 {
		t.Errorf("tanh(2) = %g", got[2])
	}
}

func TestSoftmaxProperties(t *testing.T) {
	sm, err := NewActivation(ActSoftmax, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d float64) bool {
		in := []float64{
			math.Mod(a, 20), math.Mod(b, 20), math.Mod(c, 20), math.Mod(d, 20),
		}
		out, err := sm.Forward(in)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxOverflowSafe(t *testing.T) {
	sm, err := NewActivation(ActSoftmax, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sm.Forward([]float64{1000, 999})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Errorf("softmax overflowed: %v", out)
	}
	if out[0] <= out[1] {
		t.Error("softmax ordering lost")
	}
}

// forwardBeforeApply is ActivationLayer.Forward as it was written before it
// became a copy and an Apply: out of place, ReLU by comparison. It is the
// reference Apply is pinned to.
func forwardBeforeApply(kind Activation, in []float64) []float64 {
	out := make([]float64, len(in))
	switch kind {
	case ActReLU:
		for i, v := range in {
			if v > 0 {
				out[i] = v
			}
		}
	case ActSigmoid:
		for i, v := range in {
			out[i] = 1 / (1 + math.Exp(-v))
		}
	case ActTanh:
		for i, v := range in {
			out[i] = math.Tanh(v)
		}
	case ActSoftmax:
		maxV := math.Inf(-1)
		for _, v := range in {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range in {
			out[i] = math.Exp(v - maxV)
			sum += out[i]
		}
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// TestApplyMatchesForward: Apply in place, Forward over it, and Apply stripe
// by stripe (the elementwise kinds, as the DPE's tile tasks call it) give the
// bits the out-of-place Forward gave, for all four kinds, on −0, ±large,
// ±denormal and ±Inf beside ordinary values; Forward leaves its input alone.
func TestApplyMatchesForward(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 709, -709, 745, -745, 1e308, -1e308,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), 3, -2.5}
	r := rng()
	for i := 0; i < 50; i++ {
		in = append(in, r.NormFloat64()*4)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d: %v (%#x), want %v (%#x)", what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, kind := range []Activation{ActReLU, ActSigmoid, ActTanh, ActSoftmax} {
		var src []float64
		for _, v := range in {
			if kind != ActSoftmax || !math.IsInf(v, 0) { // an Inf makes every softmax output NaN
				src = append(src, v)
			}
		}
		l, err := NewActivation(kind, len(src))
		if err != nil {
			t.Fatal(err)
		}
		want := forwardBeforeApply(kind, src)
		kept := append([]float64(nil), src...)
		got, err := l.Forward(src)
		if err != nil {
			t.Fatal(err)
		}
		same(kind.String()+" Forward", got, want)
		same(kind.String()+" Forward's input", src, kept)
		inPlace := append([]float64(nil), src...)
		kind.Apply(inPlace)
		same(kind.String()+" Apply", inPlace, want)
		if kind != ActSoftmax {
			striped := append([]float64(nil), src...)
			for c0 := 0; c0 < len(striped); c0 += 7 {
				kind.Apply(striped[c0:min(c0+7, len(striped))])
			}
			same(kind.String()+" Apply by stripes", striped, want)
		}
	}
}

func TestActivationShapeError(t *testing.T) {
	relu, err := NewActivation(ActReLU, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relu.Forward([]float64{1}); err == nil {
		t.Error("wrong input length accepted")
	}
}

func TestDenseForward(t *testing.T) {
	d := &Dense{in: 2, out: 2,
		W: [][]float64{{1, 2}, {3, 4}},
		B: []float64{10, 20},
	}
	got, err := d.Forward([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 13 || got[1] != 27 {
		t.Errorf("dense = %v, want [13 27]", got)
	}
	if _, err := d.Forward([]float64{1}); err == nil {
		t.Error("wrong input length accepted")
	}
}

func TestDenseInitDeterministic(t *testing.T) {
	d1, err := NewDense(4, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(4, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for o := range d1.W {
		for i := range d1.W[o] {
			if d1.W[o][i] != d2.W[o][i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
	if _, err := NewDense(0, 1, rng()); err == nil {
		t.Error("zero input dim accepted")
	}
	if _, err := NewDense(1, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestDenseWeightMatrixTranspose(t *testing.T) {
	d := &Dense{in: 2, out: 3,
		W: [][]float64{{1, 2}, {3, 4}, {5, 6}},
		B: make([]float64, 3),
	}
	m := d.WeightMatrix()
	if len(m) != 2 || len(m[0]) != 3 {
		t.Fatalf("WeightMatrix shape = %dx%d, want 2x3", len(m), len(m[0]))
	}
	// m[i][o] == W[o][i]
	if m[0][0] != 1 || m[1][0] != 2 || m[0][2] != 5 {
		t.Errorf("transpose wrong: %v", m)
	}
	// Across the eight-output blocks and a partial last one, and with rows
	// that do not run into each other.
	big, err := NewDense(5, 19, rng())
	if err != nil {
		t.Fatal(err)
	}
	m = big.WeightMatrix()
	for i := range m {
		if len(m[i]) != 19 || cap(m[i]) != 19 {
			t.Fatalf("row %d: len %d cap %d, want 19 and 19", i, len(m[i]), cap(m[i]))
		}
		for o, v := range m[i] {
			if v != big.W[o][i] {
				t.Fatalf("m[%d][%d] = %v, W[%d][%d] = %v", i, o, v, o, i, big.W[o][i])
			}
		}
	}
}

func TestDenseMetadata(t *testing.T) {
	d, err := NewDense(10, 5, rng())
	if err != nil {
		t.Fatal(err)
	}
	if d.Flops() != 100 {
		t.Errorf("Flops = %g, want 100", d.Flops())
	}
	if d.Params() != 55 {
		t.Errorf("Params = %d, want 55", d.Params())
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A centered 1-hot 3x3 kernel with pad 1 reproduces the input.
	l, err := NewConv2D(4, 4, 1, 1, 3, 3, 1, 1, rng())
	if err != nil {
		t.Fatal(err)
	}
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			l.K[0][ky][kx][0] = 0
		}
	}
	l.K[0][1][1][0] = 1
	in := make([]float64, 16)
	for i := range in {
		in[i] = float64(i)
	}
	out, err := l.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("out size = %d, want 16", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("out[%d] = %g, want %g", i, out[i], in[i])
		}
	}
}

func TestConv2DShapes(t *testing.T) {
	l, err := NewConv2D(8, 8, 3, 16, 3, 3, 1, 0, rng())
	if err != nil {
		t.Fatal(err)
	}
	if l.OutH() != 6 || l.OutW() != 6 {
		t.Errorf("out dims = %dx%d, want 6x6", l.OutH(), l.OutW())
	}
	if l.OutSize() != 6*6*16 {
		t.Errorf("OutSize = %d", l.OutSize())
	}
	if l.Params() != 16*3*3*3+16 {
		t.Errorf("Params = %d", l.Params())
	}
	if _, err := NewConv2D(2, 2, 1, 1, 5, 5, 1, 0, rng()); err == nil {
		t.Error("kernel larger than input accepted")
	}
	if _, err := NewConv2D(4, 4, 1, 1, 3, 3, 0, 0, rng()); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestConv2DIm2ColMatchesForward(t *testing.T) {
	l, err := NewConv2D(5, 5, 2, 4, 3, 3, 1, 1, rng())
	if err != nil {
		t.Fatal(err)
	}
	r := rng()
	in := make([]float64, l.InSize())
	for i := range in {
		in[i] = r.NormFloat64()
	}
	want, err := l.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	m := l.Im2ColMatrix()
	for oy := 0; oy < l.OutH(); oy++ {
		for ox := 0; ox < l.OutW(); ox++ {
			patch, err := l.Patch(in, oy, ox)
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < l.F; f++ {
				sum := l.B[f]
				for r := range patch {
					sum += patch[r] * m[r][f]
				}
				got := want[(oy*l.OutW()+ox)*l.F+f]
				if math.Abs(sum-got) > 1e-9 {
					t.Fatalf("im2col (%d,%d,f%d) = %g, direct = %g", oy, ox, f, sum, got)
				}
			}
		}
	}
}

func TestConv2DPatchBounds(t *testing.T) {
	l, err := NewConv2D(4, 4, 1, 1, 3, 3, 1, 0, rng())
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, l.InSize())
	if _, err := l.Patch(in, -1, 0); err == nil {
		t.Error("negative patch row accepted")
	}
	if _, err := l.Patch(in, 0, 9); err == nil {
		t.Error("out-of-range patch col accepted")
	}
	if _, err := l.Patch([]float64{1}, 0, 0); err == nil {
		t.Error("wrong input size accepted")
	}
}

func TestMaxPool2D(t *testing.T) {
	l, err := NewMaxPool2D(4, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	out, err := l.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 14, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("pool[%d] = %g, want %g", i, out[i], want[i])
		}
	}
	if _, err := NewMaxPool2D(5, 4, 1, 2); err == nil {
		t.Error("non-dividing pool accepted")
	}
}

func TestNetworkShapeValidation(t *testing.T) {
	d1, err := NewDense(4, 8, rng())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(9, 2, rng()) // mismatched
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork("bad", d1, d2); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := NewNetwork("empty"); err == nil {
		t.Error("empty network accepted")
	}
}

func TestMLPForwardAndMetadata(t *testing.T) {
	net, err := NewMLP("mlp", []int{8, 16, 4}, rng())
	if err != nil {
		t.Fatal(err)
	}
	if net.InSize() != 8 || net.OutSize() != 4 {
		t.Errorf("shapes = %d->%d", net.InSize(), net.OutSize())
	}
	wantParams := (8*16 + 16) + (16*4 + 4)
	if net.Params() != wantParams {
		t.Errorf("Params = %d, want %d", net.Params(), wantParams)
	}
	if net.WeightBytes(4) != float64(wantParams*4) {
		t.Errorf("WeightBytes = %g", net.WeightBytes(4))
	}

	in := make([]float64, 8)
	for i := range in {
		in[i] = float64(i) / 8
	}
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax output sums to %g", sum)
	}
	cls, err := net.Classify(in)
	if err != nil {
		t.Fatal(err)
	}
	if cls != Argmax(out) {
		t.Errorf("class = %d, want the argmax of %v", cls, out)
	}
}

func TestArgmax(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want int
	}{
		{nil, 0},
		{[]float64{-3}, 0},
		{[]float64{0.1, 0.7, 0.2}, 1},
		{[]float64{0.4, 0.1, 0.4}, 0}, // a tie goes to the first
		{[]float64{-2, -1, -5}, 1},
	} {
		if got := Argmax(c.v); got != c.want {
			t.Errorf("Argmax(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLeNetStyleForward(t *testing.T) {
	net, err := NewLeNetStyle("lenet", 8, 32, 10, rng())
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 64)
	for i := range in {
		in[i] = math.Sin(float64(i))
	}
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Errorf("out size = %d, want 10", len(out))
	}
	if net.Flops() <= 0 || net.Params() <= 0 {
		t.Error("metadata not positive")
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := NewMLP("x", []int{4}, rng()); err == nil {
		t.Error("single-size MLP accepted")
	}
}
