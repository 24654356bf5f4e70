package associative

import (
	"reflect"
	"testing"

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
	if err := tc.Store(3, ^uint64(0), ^uint64(0)); err != nil {
		t.Errorf("last row of a 64-wide TCAM rejected: %v", err)
	}
	if hits, _ := tc.Match(^uint64(0), ^uint64(0)); !reflect.DeepEqual(hits, []int{3}) {
		t.Errorf("64-bit key matched rows %v, want [3]", hits)
	}
	if err := tc.Store(4, 0, 0); err == nil {
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
