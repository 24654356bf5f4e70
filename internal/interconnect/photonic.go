package interconnect

import (
	"fmt"

	"cimrev/internal/energy"
)

// PhotonicLink is a board-to-board optical link. Per Section II.A, photonic
// interconnects "enable communications from centimeters to kilometers at
// the same energy per bit, varying only in the time of flight": energy is
// distance-independent while latency carries a time-of-flight term.
type PhotonicLink struct {
	lengthM   float64
	bandwidth float64 // bytes/s
}

// NewPhotonicLink returns a link of the given length in meters and
// bandwidth in bytes/s.
func NewPhotonicLink(lengthM, bandwidth float64) (*PhotonicLink, error) {
	if lengthM < 0 {
		return nil, fmt.Errorf("interconnect: negative link length %g", lengthM)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("interconnect: photonic bandwidth must be positive, got %g", bandwidth)
	}
	return &PhotonicLink{lengthM: lengthM, bandwidth: bandwidth}, nil
}

// Transfer returns the cost of moving nbytes across the link: time of
// flight plus serialization for latency; distance-independent energy.
func (l *PhotonicLink) Transfer(nbytes int) (energy.Cost, error) {
	if nbytes < 0 {
		return energy.Zero, fmt.Errorf("interconnect: negative transfer size %d", nbytes)
	}
	flight := energy.PicosecondsFromSeconds(l.lengthM / energy.SpeedOfLightMPerS)
	serialization := energy.PicosecondsFromSeconds(float64(nbytes) / l.bandwidth)
	return energy.Cost{
		LatencyPS: flight + serialization,
		EnergyPJ:  float64(nbytes) * energy.PhotonicEnergyPJPerByte,
	}, nil
}

// System connects multiple boards: each board has a mesh, and every pair of
// boards shares a photonic link (all-to-all, as in the multi-board scaling
// discussion of Section VI).
type System struct {
	boards []*Mesh
	link   *PhotonicLink
}

// NewSystem creates nboards boards of w x h meshes joined by identical
// photonic links of the given length and bandwidth.
func NewSystem(nboards, w, h int, meshBW, linkLenM, linkBW float64) (*System, error) {
	if nboards <= 0 {
		return nil, fmt.Errorf("interconnect: need at least one board, got %d", nboards)
	}
	boards := make([]*Mesh, nboards)
	for i := range boards {
		m, err := NewMesh(w, h, meshBW, nil)
		if err != nil {
			return nil, err
		}
		boards[i] = m
	}
	link, err := NewPhotonicLink(linkLenM, linkBW)
	if err != nil {
		return nil, err
	}
	return &System{boards: boards, link: link}, nil
}

// Boards returns the number of boards.
func (s *System) Boards() int { return len(s.boards) }

// Board returns board i's mesh.
func (s *System) Board(i int) (*Mesh, error) {
	if i < 0 || i >= len(s.boards) {
		return nil, fmt.Errorf("interconnect: board %d outside [0,%d)", i, len(s.boards))
	}
	return s.boards[i], nil
}

// Transfer moves nbytes from (srcBoard, src) to (dstBoard, dst): mesh hops
// on the source board to its edge, a photonic crossing when boards differ,
// then mesh hops to the destination.
func (s *System) Transfer(stream uint32, srcBoard int, src Coord, dstBoard int, dst Coord, nbytes int) (energy.Cost, error) {
	if srcBoard < 0 || srcBoard >= len(s.boards) {
		return energy.Zero, fmt.Errorf("interconnect: src board %d outside [0,%d)", srcBoard, len(s.boards))
	}
	if dstBoard < 0 || dstBoard >= len(s.boards) {
		return energy.Zero, fmt.Errorf("interconnect: dst board %d outside [0,%d)", dstBoard, len(s.boards))
	}
	if srcBoard == dstBoard {
		return s.boards[srcBoard].Transfer(stream, src, dst, nbytes, BestEffort)
	}
	edge := Coord{X: 0, Y: 0} // photonic transceivers sit at the mesh origin
	c1, err := s.boards[srcBoard].Transfer(stream, src, edge, nbytes, BestEffort)
	if err != nil {
		return energy.Zero, err
	}
	c2, err := s.link.Transfer(nbytes)
	if err != nil {
		return energy.Zero, err
	}
	c3, err := s.boards[dstBoard].Transfer(stream, edge, dst, nbytes, BestEffort)
	if err != nil {
		return energy.Zero, err
	}
	return c1.Seq(c2, c3), nil
}
