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
