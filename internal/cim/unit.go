// Package cim implements the paper's core architecture model (Section III,
// Figs 3-5): "A CIM micro-unit consists of control, data, and processing
// components (logic/arithmetic). Multiple CIM micro-units build a CIM unit
// when they are connected in a predefined configuration. They can be
// organized in tiles, and multiple tiles can be further scaled up."
//
// A Fabric is one board: a mesh-interconnected set of tiles, each holding
// addressable units. Units are heterogeneous ("every CIM unit can be
// different"): digital compute units, crossbar MVM units, and control units.
// A Unit is one record of the three components: its processing (the
// function a configure gives it), its data (the state a stateful function
// keeps) and its control (its edges: the units it forwards to).
//
// The fabric is also the dataflow runtime. The paper grounds CIM in
// "dataflow-like architectures, where data is continuously input into [a]
// device which is able to both store some data and computation" (Section
// I), and Section III.B defines three programming models, all of which the
// fabric runs:
//
//   - Static dataflow: units configured and wired once (LoadProgram, or
//     Configure and Connect), then fed stream after stream.
//   - Dynamic dataflow: per-packet routing, the packet carrying its own
//     route; a packet without one follows each unit's edges.
//   - Self-programmable dataflow: a program packet carries an isa.Program
//     that reconfigures and rewires units in flight.
//
// Run drains one first-in, first-out queue: the tokens injected before it
// in injection order, then every hop (and every stream a program packet
// starts) in the order it was queued. Every computation is charged to the
// ledger's "compute" category and every hop, priced by the board mesh, to
// "network"; the fabric keeps no clock of its own. A token whose unit has
// failed is dropped at the containment boundary (Section V.A).
//
// The fabric runs the DPE's code, so a compiled network computes on it
// what it computes on a dpe.Engine with the same crossbar config and seed:
//
//   - Noise key. Streams are numbered in injection order from 0. Stream
//     k's read of the MVM unit at (Tile, Unit) draws from
//     src.Derive(k).Derive(Unit·MeshW·MeshH + Tile). For a compiled plan
//     that unit number is the layer index, so stream k draws what the
//     engine draws for noise key k.
//   - One dense stage. An MVM unit is a dpe.DenseStage, the engine's own
//     unit for a Dense layer: the layer's tile, programmed on its columns,
//     plus its bias add, and every read costs the stage's Price. Digital
//     units apply nn.Activation.Apply after it, in the float order of the
//     engine's fused finish, and every digital pass is priced by
//     energy.Digital, the price of the engine's digital stages. A
//     pipeline's outputs and compute energy are the engine's.
//   - One configure path. Configure is the one place a unit gets its
//     function, and the only one that puts an MVM on a unit and checks the
//     unit's kind. LoadProgram is the one isa.Program interpreter, which a
//     program packet runs too; it checks every instruction before it
//     applies any, and transposes a loadweights operand (in x out) into
//     the bias-free layer the unit runs.
package cim

import (
	"fmt"
	"math"

	"cimrev/internal/energy"
	"cimrev/internal/isa"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
)

// UnitKind classifies a unit's hardware.
type UnitKind int

const (
	// KindCompute is a digital unit (activations, accumulation, routing).
	KindCompute UnitKind = iota + 1
	// KindCrossbar is a memristive crossbar MVM unit.
	KindCrossbar
	// KindControl is a small Von Neumann core embedded in the fabric
	// ("Von Neumann within CIM", Section III.F).
	KindControl
)

// String names the kind.
func (k UnitKind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindCrossbar:
		return "crossbar"
	case KindControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Unit is one addressable CIM unit.
type Unit struct {
	// Kind is the unit's hardware class.
	Kind UnitKind

	addr   packet.Address
	failed bool
	fn     unitFunc
	state  []float64
	succs  []*Unit
}

// Failed reports whether the unit has been fault-disabled.
func (u *Unit) Failed() bool { return u.failed }

// unitFunc is a unit's processing component: it consumes an input vector of
// the given stream, may read and update the unit's persistent state, and
// produces an output vector plus the cost of the computation. A nil output
// means the unit did not fire. A unit that draws analog noise keys it by
// the stream number.
type unitFunc func(state *[]float64, stream packet.StreamID, in []float64) ([]float64, energy.Cost, error)

// Activations maps each ISA activation function to the nn activation a
// digital unit applies for it: the one table the compiler lowers
// activation layers through.
var Activations = map[isa.Function]nn.Activation{
	isa.FuncReLU:    nn.ActReLU,
	isa.FuncSigmoid: nn.ActSigmoid,
	isa.FuncTanh:    nn.ActTanh,
	isa.FuncSoftmax: nn.ActSoftmax,
}

// Every digital function is one micro-unit pass, priced by energy.Digital.

// forward passes input through unchanged: a fresh unit's function.
func forward(_ *[]float64, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
	return append([]float64(nil), in...), energy.Digital(len(in)), nil
}

// activation applies a on a copy of the input: nn's definition of it, the
// one the DPE's digital stages run.
func activation(a nn.Activation) unitFunc {
	return func(_ *[]float64, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
		out := append([]float64(nil), in...)
		a.Apply(out)
		return out, energy.Digital(len(in)), nil
	}
}

// accumulate sums successive inputs elementwise into the unit's state and
// emits the running sum.
func accumulate(state *[]float64, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
	s := grow(state, len(in), 0)
	for i, v := range in {
		s[i] += v
	}
	return append([]float64(nil), s[:len(in)]...), energy.Digital(len(in)), nil
}

// maxPool emits the running elementwise maximum of everything seen.
func maxPool(state *[]float64, _ packet.StreamID, in []float64) ([]float64, energy.Cost, error) {
	s := grow(state, len(in), math.Inf(-1))
	for i, v := range in {
		if v > s[i] {
			s[i] = v
		}
	}
	return append([]float64(nil), s[:len(in)]...), energy.Digital(len(in)), nil
}

// grow extends *state to at least n values, each new one fill, and returns
// it.
func grow(state *[]float64, n int, fill float64) []float64 {
	for len(*state) < n {
		*state = append(*state, fill)
	}
	return *state
}
