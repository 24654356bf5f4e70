// Package cim implements the paper's core architecture model (Section III,
// Figs 3-5): "A CIM micro-unit consists of control, data, and processing
// components (logic/arithmetic). Multiple CIM micro-units build a CIM unit
// when they are connected in a predefined configuration. They can be
// organized in tiles, and multiple tiles can be further scaled up."
//
// A Fabric is one board: a mesh-interconnected set of tiles, each holding
// addressable units. Units are heterogeneous ("every CIM unit can be
// different"): digital compute units, crossbar MVM units, and control units.
// The fabric executes dataflow programs loaded through the ISA, charging
// every computation and packet movement to an energy ledger.
//
// The fabric runs the DPE's arithmetic, so a compiled network computes on it
// what it computes on a dpe.Engine with the same crossbar config and seed:
//
//   - Noise key. Streams are numbered in injection order from 0. Stream
//     k's read of the MVM unit at (Tile, Unit) draws from
//     src.Derive(k).Derive(Unit·MeshW·MeshH + Tile). For a compiled plan
//     that unit number is the layer index, so stream k draws what the
//     engine draws for noise key k.
//   - One digital half. Digital units apply nn.Activation.Apply and every
//     digital pass is priced by energy.Digital, the price of the engine's
//     digital stages. A crossbar unit adds no bias, so a pipeline's compute
//     energy is the engine's less its dense bias adds.
//   - One configure path. Configure and program packets both reach
//     dataflow.Engine.Configure and the fabric's address-aware factory,
//     which alone puts an MVM on a unit and checks the unit's kind; a
//     loaded program and a program packet both run dataflow.Exec.
package cim

import (
	"fmt"
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

	failed bool
}

// Failed reports whether the unit has been fault-disabled.
func (u *Unit) Failed() bool { return u.failed }
