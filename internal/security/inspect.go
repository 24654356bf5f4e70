// Package security implements Section IV.A of the paper, which elevates
// security to a first-class requirement of the CIM architecture:
//
//   - "Data can be inspected prior and after entering and exiting CIM":
//     an Inspector enforcing ingress/egress policy.
//   - "Paths can be better secured by partitioning": an Isolator denying
//     cross-partition traffic.
package security

import (
	"fmt"
	"sync"

	"cimrev/internal/packet"
)

// Policy configures an Inspector.
type Policy struct {
	// MaxPayload bounds data packet payload length (0 = unlimited).
	MaxPayload int
	// AllowedTypes whitelists packet types; empty allows all.
	AllowedTypes []packet.Type
	// AllowPrograms permits code-carrying packets. Self-programmable
	// dataflow is the most powerful — and most dangerous — programming
	// model, so it is off by default.
	AllowPrograms bool
}

// Inspector checks packets at the CIM boundary, "prior and after entering
// and exiting" the fabric.
type Inspector struct {
	policy  Policy
	allowed map[packet.Type]bool
}

// NewInspector compiles a policy.
func NewInspector(policy Policy) *Inspector {
	ins := &Inspector{policy: policy}
	if len(policy.AllowedTypes) > 0 {
		ins.allowed = make(map[packet.Type]bool, len(policy.AllowedTypes))
		for _, t := range policy.AllowedTypes {
			ins.allowed[t] = true
		}
	}
	return ins
}

// Inspect returns nil if the packet passes policy.
func (ins *Inspector) Inspect(p *packet.Packet) error {
	if p == nil {
		return fmt.Errorf("security: nil packet")
	}
	if ins.allowed != nil && !ins.allowed[p.Type] {
		return fmt.Errorf("security: packet type %v not allowed", p.Type)
	}
	if p.Type == packet.TypeProgram && !ins.policy.AllowPrograms {
		return fmt.Errorf("security: program packets not allowed")
	}
	if len(p.Code) > 0 && !ins.policy.AllowPrograms {
		return fmt.Errorf("security: embedded code not allowed")
	}
	if ins.policy.MaxPayload > 0 && len(p.Payload) > ins.policy.MaxPayload {
		return fmt.Errorf("security: payload %d exceeds limit %d", len(p.Payload), ins.policy.MaxPayload)
	}
	return nil
}

// Isolator partitions units and denies cross-partition traffic — the
// "dynamic hardware isolation" of Section IV.B. Safe for concurrent use.
type Isolator struct {
	mu          sync.Mutex
	partitionOf map[packet.Address]int
}

// NewIsolator returns an empty isolator; unassigned units belong to
// partition 0.
func NewIsolator() *Isolator {
	return &Isolator{partitionOf: make(map[packet.Address]int)}
}

// Assign places a unit in a partition.
func (iso *Isolator) Assign(addr packet.Address, part int) {
	iso.mu.Lock()
	defer iso.mu.Unlock()
	iso.partitionOf[addr] = part
}

// Check returns nil if src and dst share a partition.
func (iso *Isolator) Check(src, dst packet.Address) error {
	iso.mu.Lock()
	defer iso.mu.Unlock()
	a, b := iso.partitionOf[src], iso.partitionOf[dst]
	if a == b {
		return nil
	}
	return fmt.Errorf("security: partition %d may not send to partition %d (%v -> %v)", a, b, src, dst)
}
