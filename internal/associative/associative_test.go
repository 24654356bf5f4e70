package associative

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cimrev/internal/energy"
)

func TestTCAMValidation(t *testing.T) {
	if _, err := NewTCAM(0, 8, nil); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewTCAM(4, 0, nil); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewTCAM(4, 65, nil); err == nil {
		t.Error("width > 64 accepted")
	}
	tc, err := NewTCAM(4, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Rows() != 4 || tc.Width() != 64 {
		t.Error("geometry wrong")
	}
	if err := tc.Store(9, 0, 0); err == nil {
		t.Error("out-of-range store accepted")
	}
}

func TestTCAMExactMatch(t *testing.T) {
	led := energy.NewLedger()
	tc, err := NewTCAM(8, 16, led)
	if err != nil {
		t.Fatal(err)
	}
	full := uint64(0xFFFF)
	if err := tc.Store(0, 0xABCD, full); err != nil {
		t.Fatal(err)
	}
	if err := tc.Store(3, 0x1234, full); err != nil {
		t.Fatal(err)
	}
	hits, cost := tc.Match(0xABCD, full)
	if !reflect.DeepEqual(hits, []int{0}) {
		t.Errorf("hits = %v, want [0]", hits)
	}
	if cost.LatencyPS != matchCycleLatencyPS {
		t.Errorf("match latency = %d, want one cycle", cost.LatencyPS)
	}
	hits, _ = tc.Match(0x9999, full)
	if hits != nil {
		t.Errorf("spurious hits %v", hits)
	}
	if led.Category("tcam-match").EnergyPJ == 0 {
		t.Error("no match energy charged")
	}
}

func TestTCAMTernaryDontCare(t *testing.T) {
	tc, err := NewTCAM(4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: 1010XXXX — matches any low nibble.
	if err := tc.Store(0, 0xA0, 0xF0); err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{0xA0, 0xA5, 0xAF} {
		hits, _ := tc.Match(key, 0xFF)
		if !reflect.DeepEqual(hits, []int{0}) {
			t.Errorf("key %#x: hits = %v, want [0]", key, hits)
		}
	}
	if hits, _ := tc.Match(0xB0, 0xFF); hits != nil {
		t.Errorf("key B0 should not match: %v", hits)
	}
	// Search-side mask: ignore the high nibble entirely.
	if err := tc.Store(1, 0x3C, 0xFF); err != nil {
		t.Fatal(err)
	}
	hits, _ := tc.Match(0x0C, 0x0F)
	if !reflect.DeepEqual(hits, []int{0, 1}) {
		t.Errorf("masked search hits = %v, want [0 1]", hits)
	}
}

func TestTCAMLongestPrefixMatch(t *testing.T) {
	// Classic route table: /4, /6, /8 prefixes over 8-bit "addresses".
	tc, err := NewTCAM(4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Store(0, 0xA0, 0xF0); err != nil { // 1010XXXX
		t.Fatal(err)
	}
	if err := tc.Store(1, 0xA8, 0xFC); err != nil { // 101010XX
		t.Fatal(err)
	}
	if err := tc.Store(2, 0xAA, 0xFF); err != nil { // 10101010
		t.Fatal(err)
	}
	cases := []struct {
		key  uint64
		want int
	}{
		{0xAA, 2}, // exact
		{0xAB, 1}, // /6
		{0xA1, 0}, // /4
		{0x51, -1},
	}
	for _, c := range cases {
		got, _ := tc.LongestPrefixMatch(c.key)
		if got != c.want {
			t.Errorf("LPM(%#x) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestProcessorCompare(t *testing.T) {
	led := energy.NewLedger()
	p, err := NewProcessor(8, 16, led)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if err := p.Write(r, uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Rows with the low bit set: the odd values.
	if n := p.Compare(1, 1); n != 4 {
		t.Errorf("Compare matched %d rows, want 4", n)
	}
	// Writes are masked to the width: bit 16 is dropped.
	if err := p.Write(0, 1<<16|6); err != nil {
		t.Fatal(err)
	}
	if n := p.Compare(6, 0xFFFF); n != 2 {
		t.Errorf("Compare(6) matched %d rows, want 2", n)
	}
	if led.Category("ap-compare").EnergyPJ == 0 {
		t.Error("no compare energy charged")
	}
}

func TestProcessorValidation(t *testing.T) {
	if _, err := NewProcessor(0, 8, nil); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewProcessor(4, 70, nil); err == nil {
		t.Error("width > 64 accepted")
	}
	p, err := NewProcessor(2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(5, 0); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestProcessorMax(t *testing.T) {
	p, err := NewProcessor(5, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := []uint64{17, 9000, 3, 8999, 42}
	for r, v := range vals {
		if err := p.Write(r, v); err != nil {
			t.Fatal(err)
		}
	}
	got, cost := p.Max()
	if got != 9000 {
		t.Errorf("Max = %d, want 9000", got)
	}
	if cost.LatencyPS != 16*matchCycleLatencyPS {
		t.Errorf("Max latency = %d, want width cycles", cost.LatencyPS)
	}
}

// Property: Max matches the scalar maximum.
func TestProcessorMaxProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Values: func(vals []reflect.Value, r *rand.Rand) {
		n := 1 + r.Intn(30)
		vs := make([]uint16, n)
		for i := range vs {
			vs[i] = uint16(r.Uint32())
		}
		vals[0] = reflect.ValueOf(vs)
	}}
	f := func(vs []uint16) bool {
		p, err := NewProcessor(len(vs), 16, nil)
		if err != nil {
			return false
		}
		var want uint64
		for r, v := range vs {
			if err := p.Write(r, uint64(v)); err != nil {
				return false
			}
			if uint64(v) > want {
				want = uint64(v)
			}
		}
		got, _ := p.Max()
		return got == want
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
