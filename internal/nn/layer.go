// Package nn provides the neural-network substrate for the paper's headline
// application class (Section II.C: "Neural networks ... are a natural fit
// for the dataflow nature of CIM"; Section VI evaluates the Dot Product
// Engine on "neural network class of applications").
//
// Layers are pure math with explicit shapes and published FLOP/parameter
// counts, so the same network can execute on the analog DPE fabric, on the
// Von Neumann baselines, or directly in software as the accuracy reference.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one network stage.
type Layer interface {
	// Name identifies the layer kind for reports.
	Name() string
	// InSize and OutSize are the flattened input/output vector lengths.
	InSize() int
	OutSize() int
	// Forward computes the layer output.
	Forward(in []float64) ([]float64, error)
	// Flops is the arithmetic cost of one Forward.
	Flops() float64
	// Params is the trainable parameter count.
	Params() int
}

// Activation kinds.
type Activation int

const (
	// ActReLU is max(0, x).
	ActReLU Activation = iota + 1
	// ActSigmoid is the logistic function.
	ActSigmoid
	// ActTanh is the hyperbolic tangent.
	ActTanh
	// ActSoftmax normalizes to a probability distribution.
	ActSoftmax
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	case ActSoftmax:
		return "softmax"
	default:
		return fmt.Sprintf("act(%d)", int(a))
	}
}

// Apply applies the nonlinearity to v in place: the one definition of each
// kind, which Forward, the DPE's digital stages and the fabric's compute
// units all run. The elementwise
// kinds (ReLU, sigmoid, tanh) take any run of elements, so a caller may apply
// them stripe by stripe; softmax normalizes over exactly the slice it is
// given. ReLU is max(v, 0), branch-free: +0 for −0 and for every negative
// input, as the comparison it replaces gave (a NaN stays NaN).
func (a Activation) Apply(v []float64) {
	switch a {
	case ActReLU:
		for i, x := range v {
			v[i] = max(x, 0)
		}
	case ActSigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	case ActTanh:
		for i, x := range v {
			v[i] = math.Tanh(x)
		}
	case ActSoftmax:
		maxV := math.Inf(-1)
		for _, x := range v {
			if x > maxV {
				maxV = x
			}
		}
		var sum float64
		for i, x := range v {
			v[i] = math.Exp(x - maxV)
			sum += v[i]
		}
		for i := range v {
			v[i] /= sum
		}
	}
}

// ActivationLayer applies a nonlinearity elementwise (softmax across the
// vector).
type ActivationLayer struct {
	kind Activation
	size int
}

var _ Layer = (*ActivationLayer)(nil)

// NewActivation returns an activation layer of the given size.
func NewActivation(kind Activation, size int) (*ActivationLayer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nn: activation size must be positive, got %d", size)
	}
	switch kind {
	case ActReLU, ActSigmoid, ActTanh, ActSoftmax:
	default:
		return nil, fmt.Errorf("nn: unknown activation %d", kind)
	}
	return &ActivationLayer{kind: kind, size: size}, nil
}

// Kind returns the activation kind.
func (l *ActivationLayer) Kind() Activation { return l.kind }

// Name implements Layer.
func (l *ActivationLayer) Name() string { return l.kind.String() }

// InSize implements Layer.
func (l *ActivationLayer) InSize() int { return l.size }

// OutSize implements Layer.
func (l *ActivationLayer) OutSize() int { return l.size }

// Flops implements Layer.
func (l *ActivationLayer) Flops() float64 { return float64(l.size) }

// Params implements Layer.
func (l *ActivationLayer) Params() int { return 0 }

// Forward implements Layer: the kind's Apply on a copy of in.
func (l *ActivationLayer) Forward(in []float64) ([]float64, error) {
	if len(in) != l.size {
		return nil, fmt.Errorf("nn: %s input %d != %d", l.Name(), len(in), l.size)
	}
	out := make([]float64, len(in))
	copy(out, in)
	l.kind.Apply(out)
	return out, nil
}

// Dense is a fully connected layer: out = W·in + b.
type Dense struct {
	in, out int
	// W[o][i] is row-major by output neuron; this is the matrix the DPE
	// compiler transposes onto crossbars.
	W [][]float64
	B []float64
}

var _ Layer = (*Dense)(nil)

// NewDense returns a dense layer with Xavier-uniform weights drawn from rng.
func NewDense(in, out int, rng *rand.Rand) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense dims must be positive, got %dx%d", in, out)
	}
	if rng == nil {
		return nil, fmt.Errorf("nn: dense needs an rng for initialization")
	}
	d := &Dense{in: in, out: out, B: make([]float64, out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	d.W = make([][]float64, out)
	for o := range d.W {
		d.W[o] = make([]float64, in)
		for i := range d.W[o] {
			d.W[o][i] = (rng.Float64()*2 - 1) * limit
		}
	}
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense-%dx%d", d.in, d.out) }

// InSize implements Layer.
func (d *Dense) InSize() int { return d.in }

// OutSize implements Layer.
func (d *Dense) OutSize() int { return d.out }

// Flops implements Layer.
func (d *Dense) Flops() float64 { return 2 * float64(d.in) * float64(d.out) }

// Params implements Layer.
func (d *Dense) Params() int { return d.in*d.out + d.out }

// Forward implements Layer.
func (d *Dense) Forward(in []float64) ([]float64, error) {
	if len(in) != d.in {
		return nil, fmt.Errorf("nn: dense input %d != %d", len(in), d.in)
	}
	out := make([]float64, d.out)
	for o := 0; o < d.out; o++ {
		sum := d.B[o]
		row := d.W[o]
		for i, v := range in {
			sum += row[i] * v
		}
		out[o] = sum
	}
	return out, nil
}

// WeightMatrix returns the in x out matrix (transposed from W) suitable for
// crossbar programming, where inputs drive rows and outputs read columns.
// Its rows share one slab, filled eight outputs a step: eight rows of W are
// read in order and each row of the result gets eight contiguous writes.
func (d *Dense) WeightMatrix() [][]float64 {
	slab := make([]float64, d.in*d.out)
	m := make([][]float64, d.in)
	for i := range m {
		m[i] = slab[i*d.out:][:d.out:d.out]
	}
	for o0 := 0; o0 < d.out; o0 += 8 {
		blk := d.W[o0:min(o0+8, d.out)]
		for i, row := range m {
			dst := row[o0:][:len(blk)]
			for j, w := range blk {
				dst[j] = w[i]
			}
		}
	}
	return m
}
