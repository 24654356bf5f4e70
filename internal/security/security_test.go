package security

import (
	"strings"
	"testing"

	"cimrev/internal/packet"
)

func samplePacket() *packet.Packet {
	return &packet.Packet{
		Dst:     packet.Address{Tile: 2},
		Stream:  7,
		Type:    packet.TypeData,
		Payload: []float64{1, 2, 3},
	}
}

func TestInspectorTypePolicy(t *testing.T) {
	ins := NewInspector(Policy{AllowedTypes: []packet.Type{packet.TypeData}})
	if err := ins.Inspect(samplePacket()); err != nil {
		t.Errorf("allowed type rejected: %v", err)
	}
	ctrl := &packet.Packet{Type: packet.TypeControl}
	if err := ins.Inspect(ctrl); err == nil {
		t.Error("disallowed type accepted")
	}
	if err := ins.Inspect(nil); err == nil {
		t.Error("nil packet accepted")
	}
}

func TestInspectorProgramPolicy(t *testing.T) {
	strict := NewInspector(Policy{})
	prog := &packet.Packet{Type: packet.TypeProgram, Code: []byte{1}}
	if err := strict.Inspect(prog); err == nil {
		t.Error("program packet accepted by default policy")
	}
	smuggled := &packet.Packet{Type: packet.TypeData, Code: []byte{1}}
	if err := strict.Inspect(smuggled); err == nil {
		t.Error("code smuggled in data packet accepted")
	}
	open := NewInspector(Policy{AllowPrograms: true})
	if err := open.Inspect(prog); err != nil {
		t.Errorf("program packet rejected by permissive policy: %v", err)
	}
}

func TestInspectorPayloadLimit(t *testing.T) {
	ins := NewInspector(Policy{MaxPayload: 2})
	small := &packet.Packet{Type: packet.TypeData, Payload: []float64{1, 2}}
	if err := ins.Inspect(small); err != nil {
		t.Errorf("within-limit payload rejected: %v", err)
	}
	big := &packet.Packet{Type: packet.TypeData, Payload: []float64{1, 2, 3}}
	if err := ins.Inspect(big); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestIsolator(t *testing.T) {
	iso := NewIsolator()
	a := packet.Address{Tile: 0}
	b := packet.Address{Tile: 1}
	c := packet.Address{Tile: 2}
	iso.Assign(a, 1)
	iso.Assign(b, 1)
	iso.Assign(c, 2)

	if err := iso.Check(a, b); err != nil {
		t.Errorf("same-partition traffic rejected: %v", err)
	}
	if err := iso.Check(a, c); err == nil {
		t.Error("cross-partition traffic accepted")
	}
	if err := iso.Check(c, a); err == nil {
		t.Error("reverse cross-partition traffic accepted")
	}
	// Unassigned units share partition 0.
	d, e := packet.Address{Tile: 8}, packet.Address{Tile: 9}
	if err := iso.Check(d, e); err != nil {
		t.Errorf("unassigned units rejected: %v", err)
	}
}

func TestErrorsMentionSecurity(t *testing.T) {
	// Error strings should carry the package prefix for log triage.
	err := NewInspector(Policy{}).Inspect(nil)
	if err == nil || !strings.Contains(err.Error(), "security:") {
		t.Errorf("error %v lacks package prefix", err)
	}
}
