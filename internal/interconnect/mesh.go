// Package interconnect models the reconfigurable fabric the paper makes "an
// integral part of the CIM model" (Section III): on-board 2D meshes of
// switches between tiles, and distance-insensitive photonic links between
// boards (Section II.A).
package interconnect

import (
	"fmt"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
)

// Coord is a switch position on a board mesh.
type Coord struct {
	X, Y int
}

// String renders the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Mesh is a W x H grid of switches with X-then-Y dimension-ordered routing.
// Mesh is safe for concurrent use.
type Mesh struct {
	w, h   int
	linkBW float64 // bytes/s per link direction
	reg    *metrics.Registry
}

// NewMesh returns a w x h mesh whose links each carry linkBW bytes/s.
// reg may be nil to disable metrics.
func NewMesh(w, h int, linkBW float64, reg *metrics.Registry) (*Mesh, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("interconnect: mesh dims must be positive, got %dx%d", w, h)
	}
	if linkBW <= 0 {
		return nil, fmt.Errorf("interconnect: link bandwidth must be positive, got %g", linkBW)
	}
	return &Mesh{w: w, h: h, linkBW: linkBW, reg: reg}, nil
}

func (m *Mesh) inBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.w && c.Y >= 0 && c.Y < m.h
}

// Route returns the XY-ordered path from src to dst, excluding src and
// including dst. An empty path means src == dst.
func (m *Mesh) Route(src, dst Coord) ([]Coord, error) {
	if !m.inBounds(src) {
		return nil, fmt.Errorf("interconnect: src %v outside %dx%d mesh", src, m.w, m.h)
	}
	if !m.inBounds(dst) {
		return nil, fmt.Errorf("interconnect: dst %v outside %dx%d mesh", dst, m.w, m.h)
	}
	var path []Coord
	cur := src
	for cur.X != dst.X {
		if cur.X < dst.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	for cur.Y != dst.Y {
		if cur.Y < dst.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	return path, nil
}

// Transfer moves nbytes from src to dst and returns the cost: one router
// hop per link plus serialization at the link bandwidth.
func (m *Mesh) Transfer(src, dst Coord, nbytes int) (energy.Cost, error) {
	if nbytes < 0 {
		return energy.Zero, fmt.Errorf("interconnect: negative transfer size %d", nbytes)
	}
	path, err := m.Route(src, dst)
	if err != nil {
		return energy.Zero, err
	}
	if len(path) == 0 || nbytes == 0 {
		return energy.Zero, nil
	}

	hops := int64(len(path))
	serialization := energy.PicosecondsFromSeconds(float64(nbytes) / m.linkBW)
	cost := energy.Cost{
		LatencyPS: hops*energy.RouterHopLatencyPS + serialization,
		EnergyPJ: float64(nbytes) * (energy.LinkEnergyPJPerByte +
			float64(hops)*energy.RouterHopEnergyPJPerByte),
	}
	if m.reg != nil {
		m.reg.Counter("mesh.transfers").Inc()
		m.reg.Rate("mesh.bytes").Record(float64(nbytes), cost.LatencyPS)
		m.reg.Histogram("mesh.hops").Observe(float64(hops))
	}
	return cost, nil
}
