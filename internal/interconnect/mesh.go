// Package interconnect models the reconfigurable fabric the paper makes "an
// integral part of the CIM model" (Section III): on-board 2D meshes of
// switches between tiles, and distance-insensitive photonic links between
// boards (Section II.A). It also implements the Quality-of-Service
// provisioning of Section IV.B: bandwidth reservations that give one stream
// "minimal performance influence from one stream to another".
package interconnect

import (
	"fmt"
	"sort"
	"sync"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
)

// Coord is a switch position on a board mesh.
type Coord struct {
	X, Y int
}

// String renders the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Class selects the service class of a transfer.
type Class int

const (
	// BestEffort transfers share the unreserved bandwidth.
	BestEffort Class = iota + 1
	// Guaranteed transfers use bandwidth reserved via ReserveLane.
	Guaranteed
)

type linkKey struct {
	from, to Coord
}

type linkState struct {
	reserved map[uint32]float64 // stream -> reserved fraction
	bytes    float64            // cumulative traffic for load reporting
}

// Mesh is a W x H grid of switches with X-then-Y dimension-ordered routing.
// Mesh is safe for concurrent use.
type Mesh struct {
	w, h   int
	linkBW float64 // bytes/s per link direction

	mu    sync.Mutex
	links map[linkKey]*linkState

	reg *metrics.Registry
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
	return &Mesh{w: w, h: h, linkBW: linkBW, links: make(map[linkKey]*linkState), reg: reg}, nil
}

// LinkBandwidth returns the per-link bandwidth in bytes/s.
func (m *Mesh) LinkBandwidth() float64 { return m.linkBW }

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

func (m *Mesh) link(from, to Coord) *linkState {
	k := linkKey{from, to}
	ls, ok := m.links[k]
	if !ok {
		ls = &linkState{reserved: make(map[uint32]float64)}
		m.links[k] = ls
	}
	return ls
}

// ReserveLane reserves fraction of every link's bandwidth along the path
// from src to dst for the given stream (Section IV.B "provisioning enough
// interconnect"). Reservations stack; exceeding 90% total on any link fails
// so best-effort traffic cannot be starved entirely.
func (m *Mesh) ReserveLane(stream uint32, src, dst Coord, fraction float64) error {
	if fraction <= 0 || fraction > 0.9 {
		return fmt.Errorf("interconnect: reservation fraction %g outside (0,0.9]", fraction)
	}
	path, err := m.Route(src, dst)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Validate all links before committing any.
	prev := src
	for _, hop := range path {
		ls := m.link(prev, hop)
		var total float64
		for _, f := range ls.reserved {
			total += f
		}
		if total+fraction > 0.9 {
			return fmt.Errorf("interconnect: link %v->%v over-reserved (%.0f%% + %.0f%%)",
				prev, hop, total*100, fraction*100)
		}
		prev = hop
	}
	prev = src
	for _, hop := range path {
		m.link(prev, hop).reserved[stream] += fraction
		prev = hop
	}
	return nil
}

// ReleaseLane removes every reservation held by stream.
func (m *Mesh) ReleaseLane(stream uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ls := range m.links {
		delete(ls.reserved, stream)
	}
}

// Transfer moves nbytes from src to dst under the given service class and
// returns the cost. Guaranteed transfers use the stream's reserved share of
// each link; best-effort transfers share what is left after reservations.
func (m *Mesh) Transfer(stream uint32, src, dst Coord, nbytes int, class Class) (energy.Cost, error) {
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

	m.mu.Lock()
	// Find the bottleneck bandwidth along the path for this class.
	bw := m.linkBW
	prev := src
	for _, hop := range path {
		ls := m.link(prev, hop)
		var reservedTotal float64
		for _, f := range ls.reserved {
			reservedTotal += f
		}
		var avail float64
		switch class {
		case Guaranteed:
			avail = m.linkBW * ls.reserved[stream]
			if avail == 0 {
				m.mu.Unlock()
				return energy.Zero, fmt.Errorf("interconnect: stream %d has no reservation on %v->%v", stream, prev, hop)
			}
		default:
			avail = m.linkBW * (1 - reservedTotal)
		}
		if avail < bw {
			bw = avail
		}
		ls.bytes += float64(nbytes)
		prev = hop
	}
	m.mu.Unlock()

	hops := int64(len(path))
	serialization := energy.PicosecondsFromSeconds(float64(nbytes) / bw)
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

// LinkLoad reports cumulative bytes per link, sorted by descending load —
// the "load information management" input of Section IV.C.
type LinkLoad struct {
	From, To Coord
	Bytes    float64
}

// Loads returns per-link cumulative traffic sorted by descending bytes.
func (m *Mesh) Loads() []LinkLoad {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LinkLoad, 0, len(m.links))
	for k, ls := range m.links {
		out = append(out, LinkLoad{From: k.from, To: k.to, Bytes: ls.bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].From != out[j].From {
			return less(out[i].From, out[j].From)
		}
		return less(out[i].To, out[j].To)
	})
	return out
}

func less(a, b Coord) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}
