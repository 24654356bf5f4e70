// Package fault implements Section V.A of the paper:
//
//   - Fault detection "can use extra bits on data": packets carry a CRC
//     checksum verified at component boundaries.
//   - Fault containment: detected-bad data is dropped at the boundary so it
//     cannot spread ("prevent ... silent data corruption").
//   - Fault prevention "through redundancy of information and components":
//     spare units shadow primaries.
//   - Fault recovery "by failing over to redundant components": streams
//     redirect to the spare, and "data can be held in preceding components
//     until computation is completed or in case of failure redirected".
package fault

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"cimrev/internal/cim"
	"cimrev/internal/metrics"
	"cimrev/internal/packet"
)

// Checksum computes the CRC-32 "extra bits" protecting a payload.
func Checksum(payload []float64) uint32 {
	buf := make([]byte, 8*len(payload))
	for i, v := range payload {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return crc32.ChecksumIEEE(buf)
}

// Seal appends the checksum to the payload as a trailing guard value so it
// travels with the data through the fabric.
func Seal(payload []float64) []float64 {
	out := make([]float64, len(payload)+1)
	copy(out, payload)
	out[len(payload)] = float64(Checksum(payload))
	return out
}

// Open verifies and strips the trailing checksum. It returns the original
// payload, or an error if the data was corrupted in flight. The guard
// value itself is validated before conversion: a corrupted trailer that is
// NaN, infinite, negative, fractional, or beyond uint32 range is reported
// as corruption explicitly instead of being collapsed by a float-to-int
// conversion (which would turn distinct corruptions into aliased guards
// and, for NaN/Inf, platform-dependent values).
func Open(sealed []float64) ([]float64, error) {
	if len(sealed) < 1 {
		return nil, fmt.Errorf("fault: sealed payload too short")
	}
	payload := sealed[:len(sealed)-1]
	g := sealed[len(sealed)-1]
	switch {
	case math.IsNaN(g):
		return nil, fmt.Errorf("fault: guard value is NaN")
	case math.IsInf(g, 0):
		return nil, fmt.Errorf("fault: guard value is %g", g)
	case g != math.Trunc(g):
		return nil, fmt.Errorf("fault: guard value %g is not an integer", g)
	case g < 0 || g > math.MaxUint32:
		return nil, fmt.Errorf("fault: guard value %g outside uint32 range", g)
	}
	want := uint32(g)
	if got := Checksum(payload); got != want {
		return nil, fmt.Errorf("fault: checksum mismatch (got %#x, want %#x)", got, want)
	}
	return append([]float64(nil), payload...), nil
}

// FlipBit corrupts one bit of element idx in place — the fault-injection
// primitive used by tests and the failure-injection experiments.
func FlipBit(payload []float64, idx int, bit uint) error {
	if idx < 0 || idx >= len(payload) {
		return fmt.Errorf("fault: index %d outside payload of %d", idx, len(payload))
	}
	if bit > 63 {
		return fmt.Errorf("fault: bit %d outside [0,63]", bit)
	}
	payload[idx] = math.Float64frombits(math.Float64bits(payload[idx]) ^ (1 << bit))
	return nil
}

// Guard manages redundancy and recovery for a fabric.
type Guard struct {
	fabric *cim.Fabric
	reg    *metrics.Registry

	// spares maps primary unit -> spare unit.
	spares map[packet.Address]packet.Address
	// held retains injected streams for replay ("data can be held in
	// preceding components"), keyed by entry unit.
	held map[packet.Address][][]float64
}

// NewGuard wraps a fabric. reg may be nil.
func NewGuard(fabric *cim.Fabric, reg *metrics.Registry) (*Guard, error) {
	if fabric == nil {
		return nil, fmt.Errorf("fault: nil fabric")
	}
	return &Guard{
		fabric: fabric,
		reg:    reg,
		spares: make(map[packet.Address]packet.Address),
		held:   make(map[packet.Address][][]float64),
	}, nil
}

// AddSpare registers spare as the redundant replacement for primary. Both
// units must exist; the caller is responsible for configuring the spare
// identically (same function, same weights).
func (g *Guard) AddSpare(primary, spare packet.Address) error {
	if primary == spare {
		return fmt.Errorf("fault: unit %v cannot spare itself", primary)
	}
	if _, err := g.fabric.Unit(primary); err != nil {
		return err
	}
	su, err := g.fabric.Unit(spare)
	if err != nil {
		return err
	}
	if su.Failed() {
		return fmt.Errorf("fault: spare %v is already failed", spare)
	}
	if _, dup := g.spares[primary]; dup {
		return fmt.Errorf("fault: unit %v already has a spare", primary)
	}
	g.spares[primary] = spare
	return nil
}

// Fail injects a unit failure and recovers: the primary is disabled
// (containment), and if a spare exists the primary's edges are rewired to
// it (stream redirection). It reports whether recovery happened.
func (g *Guard) Fail(primary packet.Address) (recovered bool, err error) {
	preds, err := g.fabric.Predecessors(primary)
	if err != nil {
		return false, err
	}
	succs, err := g.fabric.Successors(primary)
	if err != nil {
		return false, err
	}
	if err := g.fabric.DisableUnit(primary); err != nil {
		return false, err
	}
	if g.reg != nil {
		g.reg.Counter("fault.injected").Inc()
	}

	spare, ok := g.spares[primary]
	if !ok {
		return false, nil
	}
	delete(g.spares, primary)
	for _, p := range preds {
		if err := g.fabric.Connect(p, spare); err != nil {
			return false, fmt.Errorf("fault: rewire %v->%v: %w", p, spare, err)
		}
	}
	for _, s := range succs {
		if s == spare {
			continue
		}
		if err := g.fabric.Connect(spare, s); err != nil {
			return false, fmt.Errorf("fault: rewire %v->%v: %w", spare, s, err)
		}
	}
	if g.reg != nil {
		g.reg.Counter("fault.recovered").Inc()
	}
	return true, nil
}

// StreamHeld injects data while retaining a copy for replay.
func (g *Guard) StreamHeld(addr packet.Address, data []float64) error {
	if err := g.fabric.Stream(addr, data); err != nil {
		return err
	}
	g.held[addr] = append(g.held[addr], append([]float64(nil), data...))
	return nil
}

// Replay re-injects every held stream for addr (after a failover) and
// reports how many were replayed.
func (g *Guard) Replay(addr packet.Address) (int, error) {
	streams := g.held[addr]
	for i, data := range streams {
		if err := g.fabric.Stream(addr, data); err != nil {
			return i, fmt.Errorf("fault: replay %d: %w", i, err)
		}
	}
	if g.reg != nil {
		g.reg.Counter("fault.replays").Add(int64(len(streams)))
	}
	return len(streams), nil
}

// Ack discards held streams for addr once downstream results are confirmed
// ("until computation is completed").
func (g *Guard) Ack(addr packet.Address) {
	delete(g.held, addr)
}
