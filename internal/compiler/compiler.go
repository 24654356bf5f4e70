// Package compiler maps neural networks onto CIM fabrics — the software
// layer Section III.D calls for: "Compilers will further need to understand
// the architecture across micro-units and across tiles: data locality and
// how data is streamed across micro-units and across tiles; how graphs are
// built and mapped to physical units."
//
// The compiler lowers an nn.Network to a placement of units on a board
// mesh, assigning dense layers to crossbar units and activations to digital
// compute units, placing consecutive layers on mesh-adjacent tiles so
// stream traffic stays local. Apply instantiates a Plan on a fabric. A
// crossbar unit runs its layer as the dpe.DenseStage a dpe.Engine runs for
// it, bias included, and layer i lands on unit number i (Unit·MeshW·MeshH +
// Tile), the number the fabric keys its noise by, so a plan's outputs and
// compute energy are == to a dpe.Engine's on the same crossbar config.
package compiler

import (
	"fmt"

	"cimrev/internal/cim"
	"cimrev/internal/isa"
	"cimrev/internal/nn"
	"cimrev/internal/packet"
)

// Placement records where one layer landed.
type Placement struct {
	// LayerName names the layer.
	LayerName string
	// Addr is the assigned unit address.
	Addr packet.Address
	// Kind is the unit hardware class.
	Kind cim.UnitKind
	// Fn is the configured ISA function.
	Fn isa.Function
	// Layer is the Dense layer an MVM placement runs, the network's own
	// (nil otherwise).
	Layer *nn.Dense
}

// Plan is a compiled network: an ordered pipeline of placements. The
// first placement receives inference inputs; results appear at the last.
type Plan struct {
	// Placements are in pipeline order.
	Placements []Placement
}

// Compile lowers net onto a board described by cfg. Supported layers: Dense
// (crossbar MVM, with its bias) and ActivationLayer (digital). The ISA has
// no convolution operand, so Compile rejects Conv2D and MaxPool2D; the DPE
// engine runs those networks.
func Compile(net *nn.Network, cfg cim.Config) (*Plan, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("compiler: empty network")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tiles := cfg.MeshW * cfg.MeshH
	plan := &Plan{}
	unitOnTile := make(map[int]uint16, tiles)
	for i, layer := range net.Layers {
		// Consecutive layers land on consecutive tiles (wrapping), so a
		// pipeline stage's successor is one mesh hop away row-major.
		tile := i % tiles
		unit := unitOnTile[tile]
		unitOnTile[tile] = unit + 1
		addr := packet.Address{Board: cfg.Board, Tile: uint16(tile), Unit: unit}

		var pl Placement
		switch l := layer.(type) {
		case *nn.Dense:
			pl = Placement{
				LayerName: l.Name(), Addr: addr,
				Kind: cim.KindCrossbar, Fn: isa.FuncMVM, Layer: l,
			}
		case *nn.ActivationLayer:
			var fn isa.Function
			for f, a := range cim.Activations {
				if a == l.Kind() {
					fn = f
				}
			}
			pl = Placement{
				LayerName: l.Name(), Addr: addr, Kind: cim.KindCompute, Fn: fn,
			}
		case *nn.Conv2D, *nn.MaxPool2D:
			return nil, fmt.Errorf("compiler: layer %d (%s) needs a convolution operand, which the ISA does not have; use the DPE engine", i, layer.Name())
		default:
			return nil, fmt.Errorf("compiler: layer %d (%s) is not supported in a static pipeline; use the DPE engine", i, layer.Name())
		}
		plan.Placements = append(plan.Placements, pl)
	}
	return plan, nil
}

// Apply instantiates the plan on a fabric: creates units, programs
// crossbars, and wires the pipeline. Every placement is checked before any
// unit is added (cim.Fabric.CheckUnit), so a rejected plan leaves the fabric
// as it was.
func Apply(plan *Plan, fabric *cim.Fabric) error {
	if plan == nil || len(plan.Placements) == 0 {
		return fmt.Errorf("compiler: empty plan")
	}
	for _, pl := range plan.Placements {
		if err := fabric.CheckUnit(pl.Addr, pl.Kind, pl.Layer); err != nil {
			return fmt.Errorf("compiler: place %s: %w", pl.LayerName, err)
		}
	}
	for _, pl := range plan.Placements {
		if _, err := fabric.AddUnit(pl.Addr, pl.Kind); err != nil {
			return fmt.Errorf("compiler: place %s: %w", pl.LayerName, err)
		}
		if err := fabric.Configure(pl.Addr, pl.Fn, pl.Layer); err != nil {
			return fmt.Errorf("compiler: configure %s: %w", pl.LayerName, err)
		}
	}
	for i := 1; i < len(plan.Placements); i++ {
		src := plan.Placements[i-1].Addr
		dst := plan.Placements[i].Addr
		if err := fabric.Connect(src, dst); err != nil {
			return fmt.Errorf("compiler: connect stage %d: %w", i, err)
		}
	}
	return nil
}
