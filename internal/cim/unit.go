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

	"cimrev/internal/crossbar"
	"cimrev/internal/isa"
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
	// Addr locates the unit (board/tile/unit).
	Addr packet.Address
	// Kind is the unit's hardware class.
	Kind UnitKind
	// MicroUnits is how many micro-units compose this unit; it scales the
	// unit's parallel width (one micro-unit handles one vector lane
	// grouping in the cost model).
	MicroUnits int

	// fn is the currently configured function.
	fn isa.Function
	// tile is the crossbar hardware for KindCrossbar units.
	tile *crossbar.Tile

	failed bool
}

// Function returns the configured ISA function (zero if unconfigured).
func (u *Unit) Function() isa.Function { return u.fn }

// Failed reports whether the unit has been fault-disabled.
func (u *Unit) Failed() bool { return u.failed }

// Writes returns the unit's crossbar cell-programming count; zero for
// non-crossbar units. This is the wear signal the serviceability model
// (Section V.D) watches.
func (u *Unit) Writes() int64 {
	if u.tile == nil {
		return 0
	}
	return u.tile.Writes()
}

// CrossbarShape returns the programmed matrix dimensions of a crossbar
// unit, or (0, 0) for other kinds.
func (u *Unit) CrossbarShape() (rows, cols int) {
	if u.tile == nil {
		return 0, 0
	}
	return u.tile.Shape()
}
