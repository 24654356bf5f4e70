package packet

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func samplePacket() *Packet {
	return &Packet{
		Dst:     Address{Board: 4, Tile: 5, Unit: 6},
		Stream:  77,
		Type:    TypeData,
		Payload: []float64{1.5, -2.25, math.Pi},
		Code:    []byte{0xDE, 0xAD},
		Route:   []Address{{Board: 9, Tile: 8, Unit: 7}},
	}
}

func TestSizeBytes(t *testing.T) {
	// Header, 3 payload values, 2 code bytes, 1 explicit hop.
	if got, want := samplePacket().SizeBytes(), headerBytes+3*8+2+6; got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	if got := (&Packet{Type: TypeControl}).SizeBytes(); got != headerBytes {
		t.Errorf("empty packet size = %d, want %d", got, headerBytes)
	}
}

func TestClone(t *testing.T) {
	p := samplePacket()
	c := p.Clone()
	if !reflect.DeepEqual(p, c) {
		t.Fatal("clone differs from original")
	}
	c.Payload[0] = 99
	c.Code[0] = 1
	c.Route[0].Board = 0
	if p.Payload[0] == 99 || p.Code[0] == 1 || p.Route[0].Board == 0 {
		t.Error("clone shares backing arrays with original")
	}
}

func TestCloneNilSlices(t *testing.T) {
	p := &Packet{Type: TypeData}
	c := p.Clone()
	if c.Payload != nil || c.Code != nil || c.Route != nil {
		t.Error("clone invented non-nil slices")
	}
}

func TestTypeString(t *testing.T) {
	tests := []struct {
		typ  Type
		want string
	}{
		{TypeData, "data"},
		{TypeConfig, "config"},
		{TypeProgram, "program"},
		{TypeControl, "control"},
		{Type(200), "type(200)"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("Type(%d).String() = %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Board: 1, Tile: 2, Unit: 3}
	if got := a.String(); !strings.Contains(got, "1/2/3") {
		t.Errorf("Address.String() = %q", got)
	}
}

func TestParseAddressRoundTrip(t *testing.T) {
	for _, a := range []Address{{}, {Board: 1, Tile: 2, Unit: 3}, {Board: 65535, Tile: 15, Unit: 65535}} {
		got, err := ParseAddress(a.String())
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("ParseAddress(%q) = %v, want %v", a.String(), got, a)
		}
	}
	for _, bad := range []string{"1/2", "a/b/c", "1/2/99999"} {
		if _, err := ParseAddress(bad); err == nil {
			t.Errorf("ParseAddress(%q) accepted", bad)
		}
	}
}
