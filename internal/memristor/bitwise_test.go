package memristor

import (
	"testing"
	"testing/quick"

	"cimrev/internal/energy"
)

func newEngine(t *testing.T, rows, words int) *BitwiseEngine {
	t.Helper()
	e, err := NewBitwiseEngine(rows, words, energy.NewLedger())
	if err != nil {
		t.Fatalf("NewBitwiseEngine: %v", err)
	}
	return e
}

func TestBitwiseEngineDims(t *testing.T) {
	e := newEngine(t, 4, 2)
	if row := e.rows[3]; len(row) != 2 {
		t.Errorf("row 3 = %v; want 2 words", row)
	}
	if _, err := e.PopCount(4); err == nil {
		t.Error("row 4 of 4 read")
	}
	if _, err := NewBitwiseEngine(0, 1, nil); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewBitwiseEngine(1, 0, nil); err == nil {
		t.Error("zero words should fail")
	}
}

func TestBitwiseStoreLoad(t *testing.T) {
	e := newEngine(t, 2, 2)
	in := []uint64{0xDEADBEEF, 0xCAFE}
	if err := e.Store(0, in); err != nil {
		t.Fatal(err)
	}
	if got := e.rows[0]; got[0] != in[0] || got[1] != in[1] {
		t.Errorf("row 0 = %x, want %x", got, in)
	}
	// Short stores zero-fill.
	if err := e.Store(0, []uint64{0x1}); err != nil {
		t.Fatal(err)
	}
	if got := e.rows[0]; got[0] != 1 || got[1] != 0 {
		t.Errorf("short Store = %x, want [1 0]", got)
	}
}

func TestBitwiseStoreIsCopy(t *testing.T) {
	e := newEngine(t, 1, 1)
	in := []uint64{7}
	if err := e.Store(0, in); err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if got := e.rows[0][0]; got != 7 {
		t.Errorf("row 0 = %d after the caller reused its slice; Store must copy", got)
	}
}

func TestBitwiseOps(t *testing.T) {
	e := newEngine(t, 4, 1)
	a, b := uint64(0b1100), uint64(0b1010)
	if err := e.Store(0, []uint64{a}); err != nil {
		t.Fatal(err)
	}
	if err := e.Store(1, []uint64{b}); err != nil {
		t.Fatal(err)
	}

	if err := e.And(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := e.rows[2]; got[0] != a&b {
		t.Errorf("And = %b, want %b", got[0], a&b)
	}
}

func TestBitwiseOpsMatchIntegers(t *testing.T) {
	f := func(a, b uint64) bool {
		e, err := NewBitwiseEngine(3, 1, nil)
		if err != nil {
			return false
		}
		if err := e.Store(0, []uint64{a}); err != nil {
			return false
		}
		if err := e.Store(1, []uint64{b}); err != nil {
			return false
		}
		if err := e.And(0, 1, 2); err != nil {
			return false
		}
		return e.rows[2][0] == a&b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitwiseInPlaceTarget(t *testing.T) {
	// dst == a is physically fine: the array senses before it writes back.
	e := newEngine(t, 2, 1)
	if err := e.Store(0, []uint64{0b1100}); err != nil {
		t.Fatal(err)
	}
	if err := e.Store(1, []uint64{0b1010}); err != nil {
		t.Fatal(err)
	}
	if err := e.And(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.rows[0]; got[0] != 0b1000 {
		t.Errorf("in-place And = %b, want 1000", got[0])
	}
}

func TestBitwisePopCount(t *testing.T) {
	e := newEngine(t, 1, 2)
	if err := e.Store(0, []uint64{0xFF, 0x3}); err != nil {
		t.Fatal(err)
	}
	n, err := e.PopCount(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("PopCount = %d, want 10", n)
	}
}

func TestBitwiseBounds(t *testing.T) {
	e := newEngine(t, 2, 1)
	if err := e.And(0, 1, 5); err == nil {
		t.Error("out-of-range dst should fail")
	}
	if err := e.Store(-1, nil); err == nil {
		t.Error("negative row should fail")
	}
	if _, err := e.PopCount(9); err == nil {
		t.Error("out-of-range PopCount should fail")
	}
}

func TestBitwiseChargesLedger(t *testing.T) {
	led := energy.NewLedger()
	e, err := NewBitwiseEngine(2, 4, led)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store(0, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.And(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if led.Category("bitwise-compute").EnergyPJ == 0 {
		t.Error("compute charged no energy")
	}
	if led.Category("bitwise-store").LatencyPS == 0 {
		t.Error("store charged no latency")
	}
}

func TestPopcount64(t *testing.T) {
	tests := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 1}, {0xFF, 8}, {^uint64(0), 64}, {1 << 63, 1},
	}
	for _, tt := range tests {
		e := newEngine(t, 1, 1)
		if err := e.Store(0, []uint64{tt.x}); err != nil {
			t.Fatal(err)
		}
		got, err := e.PopCount(0)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("PopCount(%x) = %d, want %d", tt.x, got, tt.want)
		}
	}
}
