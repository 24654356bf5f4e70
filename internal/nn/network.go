package nn

import (
	"fmt"
	"math/rand"
)

// Network is a feed-forward stack of layers with shape checking.
type Network struct {
	Name   string
	Layers []Layer
}

// NewNetwork validates that adjacent layer shapes line up.
func NewNetwork(name string, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network %q has no layers", name)
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutSize() != layers[i].InSize() {
			return nil, fmt.Errorf("nn: network %q: layer %d out %d != layer %d in %d",
				name, i-1, layers[i-1].OutSize(), i, layers[i].InSize())
		}
	}
	return &Network{Name: name, Layers: layers}, nil
}

// InSize returns the network input length.
func (n *Network) InSize() int { return n.Layers[0].InSize() }

// OutSize returns the network output length.
func (n *Network) OutSize() int { return n.Layers[len(n.Layers)-1].OutSize() }

// Flops returns the total arithmetic per inference.
func (n *Network) Flops() float64 {
	var f float64
	for _, l := range n.Layers {
		f += l.Flops()
	}
	return f
}

// Params returns the total parameter count.
func (n *Network) Params() int {
	var p int
	for _, l := range n.Layers {
		p += l.Params()
	}
	return p
}

// WeightBytes returns parameter storage at elemBytes per parameter — the
// traffic a Von Neumann machine must stream when the model is not resident.
func (n *Network) WeightBytes(elemBytes int) float64 {
	return float64(n.Params()) * float64(elemBytes)
}

// Forward runs one inference through every layer.
func (n *Network) Forward(in []float64) ([]float64, error) {
	v := in
	for i, l := range n.Layers {
		out, err := l.Forward(v)
		if err != nil {
			return nil, fmt.Errorf("nn: network %q layer %d (%s): %w", n.Name, i, l.Name(), err)
		}
		v = out
	}
	return v, nil
}

// Classify returns the argmax of Forward.
func (n *Network) Classify(in []float64) (int, error) {
	out, err := n.Forward(in)
	if err != nil {
		return 0, err
	}
	return Argmax(out), nil
}

// Argmax returns the index of the largest value, the first on a tie, and
// 0 for an empty slice: the class a network's output vector predicts.
func Argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// NewMLP builds a dense network with ReLU between hidden layers and softmax
// at the output: sizes[0] inputs through sizes[len-1] outputs.
func NewMLP(name string, sizes []int, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least 2 sizes, got %d", len(sizes))
	}
	var layers []Layer
	for i := 1; i < len(sizes); i++ {
		d, err := NewDense(sizes[i-1], sizes[i], rng)
		if err != nil {
			return nil, err
		}
		layers = append(layers, d)
		if i < len(sizes)-1 {
			a, err := NewActivation(ActReLU, sizes[i])
			if err != nil {
				return nil, err
			}
			layers = append(layers, a)
		} else {
			a, err := NewActivation(ActSoftmax, sizes[i])
			if err != nil {
				return nil, err
			}
			layers = append(layers, a)
		}
	}
	return NewNetwork(name, layers...)
}

// NewLeNetStyle builds a small CNN for sq x sq x 1 inputs: conv(8 filters,
// 3x3) -> relu -> maxpool(2) -> dense(hidden) -> relu -> dense(classes) ->
// softmax. The edge-inference example and the DPE CNN benchmarks use it.
func NewLeNetStyle(name string, sq, hidden, classes int, rng *rand.Rand) (*Network, error) {
	conv, err := NewConv2D(sq, sq, 1, 8, 3, 3, 1, 1, rng)
	if err != nil {
		return nil, err
	}
	reluC, err := NewActivation(ActReLU, conv.OutSize())
	if err != nil {
		return nil, err
	}
	pool, err := NewMaxPool2D(conv.OutH(), conv.OutW(), conv.F, 2)
	if err != nil {
		return nil, err
	}
	d1, err := NewDense(pool.OutSize(), hidden, rng)
	if err != nil {
		return nil, err
	}
	relu1, err := NewActivation(ActReLU, hidden)
	if err != nil {
		return nil, err
	}
	d2, err := NewDense(hidden, classes, rng)
	if err != nil {
		return nil, err
	}
	sm, err := NewActivation(ActSoftmax, classes)
	if err != nil {
		return nil, err
	}
	return NewNetwork(name, conv, reluC, pool, d1, relu1, d2, sm)
}
