// Package packet defines the unit of communication in the CIM model. The
// paper grounds both its programming models (Section III.B: routing "could
// be expressed explicitly as a part of the incoming packet", and
// self-programmable dataflow "carrying code as a part of the packets") and
// its security story (Section IV.A: data "inspected prior and after
// entering and exiting CIM") in packets, so the packet format carries data,
// explicit routes, and embedded programs, and prices its wire size for
// cost accounting.
package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// Type discriminates what a packet carries.
type Type uint8

const (
	// TypeData carries a payload of values for a dataflow stream.
	TypeData Type = iota + 1
	// TypeConfig carries a fabric configuration command.
	TypeConfig
	// TypeProgram carries executable code (self-programmable dataflow).
	TypeProgram
	// TypeControl carries control-plane messages (credits, faults, acks).
	TypeControl
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeConfig:
		return "config"
	case TypeProgram:
		return "program"
	case TypeControl:
		return "control"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Address locates a CIM component hierarchically: a board in the system, a
// tile on the board, a unit in the tile (Fig 5's micro-unit → unit → tile
// organization).
type Address struct {
	Board uint16
	Tile  uint16
	Unit  uint16
}

// String renders the address as board/tile/unit.
func (a Address) String() string {
	return fmt.Sprintf("%d/%d/%d", a.Board, a.Tile, a.Unit)
}

// ParseAddress parses the board/tile/unit form String renders.
func ParseAddress(s string) (Address, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return Address{}, fmt.Errorf("address %q must be board/tile/unit", s)
	}
	var vals [3]uint16
	for i, part := range parts {
		v, err := strconv.ParseUint(part, 10, 16)
		if err != nil {
			return Address{}, fmt.Errorf("address %q: %w", s, err)
		}
		vals[i] = uint16(v)
	}
	return Address{Board: vals[0], Tile: vals[1], Unit: vals[2]}, nil
}

// StreamID identifies one dataflow stream end to end.
type StreamID uint32

// Packet is one message in flight through the CIM fabric.
type Packet struct {
	Dst    Address
	Stream StreamID
	Type   Type

	// Payload holds the stream values for TypeData packets.
	Payload []float64

	// Code holds an embedded program for TypeProgram packets
	// (self-programmable dataflow, Section III.B).
	Code []byte

	// Route optionally pins the exact path (dynamic dataflow with
	// explicit routing). Empty means the packet follows the static edges
	// of each unit it reaches.
	Route []Address
}

// headerBytes is the fixed wire overhead of a packet.
const headerBytes = 6 + 6 + 4 + 8 + 1 + 2 + 2 + 2 // src+dst+stream+seq+type+3 lengths

// SizeBytes returns the packet's wire size: fixed header, 8 bytes per
// payload value, embedded code, and 6 bytes per explicit hop.
func (p *Packet) SizeBytes() int {
	return headerBytes + 8*len(p.Payload) + len(p.Code) + 6*len(p.Route)
}

// Clone returns a deep copy so that redirected or replayed packets (fault
// recovery holds packets "in preceding components until computation is
// completed", Section V.A) never alias live buffers.
func (p *Packet) Clone() *Packet {
	c := *p
	if p.Payload != nil {
		c.Payload = append([]float64(nil), p.Payload...)
	}
	if p.Code != nil {
		c.Code = append([]byte(nil), p.Code...)
	}
	if p.Route != nil {
		c.Route = append([]Address(nil), p.Route...)
	}
	return &c
}
