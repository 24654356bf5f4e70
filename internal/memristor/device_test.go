package memristor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cimrev/internal/energy"
)

func mustDevice(t *testing.T, p DeviceParams) *Device {
	t.Helper()
	d, err := NewDevice(p)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestDeviceParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*DeviceParams)
		wantErr bool
	}{
		{"default ok", func(p *DeviceParams) {}, false},
		{"negative gmin", func(p *DeviceParams) { p.GMin = -1 }, true},
		{"zero gmax", func(p *DeviceParams) { p.GMax = 0 }, true},
		{"gmax below gmin", func(p *DeviceParams) { p.GMax = p.GMin / 2 }, true},
		{"one level", func(p *DeviceParams) { p.Levels = 1 }, true},
		{"negative noise", func(p *DeviceParams) { p.ReadNoise = -0.1 }, true},
		{"NaN noise", func(p *DeviceParams) { p.ReadNoise = math.NaN() }, true},
		{"infinite noise", func(p *DeviceParams) { p.ReadNoise = math.Inf(1) }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			err := p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDeviceProgramAndConductance(t *testing.T) {
	p := DefaultParams()
	d := mustDevice(t, p)

	if _, err := d.Program(0); err != nil {
		t.Fatalf("Program(0): %v", err)
	}
	if got := d.Conductance(); math.Abs(got-p.GMin) > 1e-12 {
		t.Errorf("level 0 conductance = %g, want GMin %g", got, p.GMin)
	}

	if _, err := d.Program(p.Levels - 1); err != nil {
		t.Fatalf("Program(max): %v", err)
	}
	if got := d.Conductance(); math.Abs(got-p.GMax) > 1e-12 {
		t.Errorf("top level conductance = %g, want GMax %g", got, p.GMax)
	}
}

func TestDeviceProgramOutOfRange(t *testing.T) {
	d := mustDevice(t, DefaultParams())
	if _, err := d.Program(-1); err == nil {
		t.Error("Program(-1) should fail")
	}
	if _, err := d.Program(d.Params().Levels); err == nil {
		t.Error("Program(Levels) should fail")
	}
}

func TestDeviceWriteCostAsymmetry(t *testing.T) {
	d := mustDevice(t, DefaultParams())
	wcost, err := d.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	_, rcost := d.Read(nil)
	if wcost.LatencyPS <= 100*rcost.LatencyPS {
		t.Errorf("write latency %d should dwarf read latency %d (Section VI write asymmetry)",
			wcost.LatencyPS, rcost.LatencyPS)
	}
}

func TestDeviceProgramWeightQuantization(t *testing.T) {
	p := DefaultParams()
	p.Levels = 4 // weights quantize to {0, 1/3, 2/3, 1}
	d := mustDevice(t, p)

	stored, _, err := d.ProgramWeight(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stored-1.0/3.0) > 1e-9 {
		t.Errorf("0.4 quantized to %g, want 1/3", stored)
	}

	stored, _, err = d.ProgramWeight(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stored-1.0) > 1e-9 {
		t.Errorf("0.9 quantized to %g, want 1.0", stored)
	}
}

func TestDeviceProgramWeightRejectsInvalid(t *testing.T) {
	d := mustDevice(t, DefaultParams())
	for _, w := range []float64{-0.1, 1.1, math.NaN()} {
		if _, _, err := d.ProgramWeight(w); err == nil {
			t.Errorf("ProgramWeight(%g) should fail", w)
		}
	}
}

func TestDeviceReadNoiseDeterministic(t *testing.T) {
	p := DefaultParams()
	p.ReadNoise = 0.05
	d := mustDevice(t, p)
	if _, err := d.Program(p.Levels - 1); err != nil {
		t.Fatal(err)
	}
	g1, _ := d.Read(rand.New(rand.NewSource(42)))
	g2, _ := d.Read(rand.New(rand.NewSource(42)))
	if g1 != g2 {
		t.Errorf("same seed gave different reads: %g vs %g", g1, g2)
	}
	g3, _ := d.Read(rand.New(rand.NewSource(43)))
	if g1 == g3 {
		t.Error("different seeds gave identical noisy reads (suspicious)")
	}
}

func TestDeviceReadNoiseZeroMatchesIdeal(t *testing.T) {
	p := DefaultParams()
	p.ReadNoise = 0
	d := mustDevice(t, p)
	if _, err := d.Program(2); err != nil {
		t.Fatal(err)
	}
	g, _ := d.Read(rand.New(rand.NewSource(1)))
	if g != d.Conductance() {
		t.Errorf("noise-free read %g != ideal %g", g, d.Conductance())
	}
}

func TestDeviceAging(t *testing.T) {
	p := DefaultParams()
	p.Endurance = 10
	p.DriftPerWrite = 0.01
	d := mustDevice(t, p)

	for i := 0; i < 10; i++ {
		if _, err := d.Program(p.Levels - 1); err != nil {
			t.Fatal(err)
		}
	}
	if h := d.Health(); h != 1.0 {
		t.Errorf("health before endurance limit = %g, want 1.0", h)
	}
	for i := 0; i < 100; i++ {
		if _, err := d.Program(p.Levels - 1); err != nil {
			t.Fatal(err)
		}
	}
	h := d.Health()
	if h >= 1.0 || h <= 0 {
		t.Errorf("health after heavy wear = %g, want in (0,1)", h)
	}
	// Aged top-level conductance must have fallen below fresh GMax.
	if g := d.Conductance(); g >= p.GMax {
		t.Errorf("aged conductance %g should be below GMax %g", g, p.GMax)
	}
}

// TestDeviceEnduranceGMaxDecayFormula pins the aging model exactly: once
// writes exceed Endurance, the top-level conductance follows
// GMax*(1-DriftPerWrite)^over, so Health and StoredWeight compress by the
// same analytic factor. A silent change to the decay law would skew every
// fault-sweep accuracy number downstream.
func TestDeviceEnduranceGMaxDecayFormula(t *testing.T) {
	p := DefaultParams()
	p.Endurance = 5
	p.DriftPerWrite = 0.02
	d := mustDevice(t, p)

	const total = 25 // 20 writes past the endurance limit
	for i := 0; i < total; i++ {
		if _, err := d.Program(p.Levels - 1); err != nil {
			t.Fatal(err)
		}
	}
	over := float64(total) - float64(p.Endurance)
	wantGMax := p.GMax * math.Pow(1-p.DriftPerWrite, over)
	if g := d.Conductance(); math.Abs(g-wantGMax) > 1e-12*p.GMax {
		t.Errorf("aged top-level conductance = %g, want %g", g, wantGMax)
	}
	wantHealth := (wantGMax - p.GMin) / (p.GMax - p.GMin)
	if h := d.Health(); math.Abs(h-wantHealth) > 1e-12 {
		t.Errorf("Health = %g, want %g", h, wantHealth)
	}
	// StoredWeight of the top level compresses by exactly Health.
	if sw := d.StoredWeight(); math.Abs(sw-wantHealth) > 1e-12 {
		t.Errorf("StoredWeight = %g, want %g", sw, wantHealth)
	}
}

// TestDeviceExtremeWearFloorsAtGMin drives a device far past its endurance
// limit: the aged GMax floors at GMin (conductance can shrink, never go
// negative or invert), so Health bottoms out at 0 and every stored weight
// collapses to 0 — graceful degradation, not wraparound.
func TestDeviceExtremeWearFloorsAtGMin(t *testing.T) {
	p := DefaultParams()
	p.Endurance = 1
	p.DriftPerWrite = 0.5 // range halves every write past the limit
	d := mustDevice(t, p)

	for i := 0; i < 200; i++ {
		if _, err := d.Program(p.Levels - 1); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Conductance(); g != p.GMin {
		t.Errorf("worn-out top-level conductance = %g, want GMin %g", g, p.GMin)
	}
	if h := d.Health(); h != 0 {
		t.Errorf("worn-out Health = %g, want 0", h)
	}
	if sw := d.StoredWeight(); sw != 0 {
		t.Errorf("worn-out StoredWeight = %g, want 0", sw)
	}
	// Reads on a dead device stay at the floor too: no negative conductance.
	g, _ := d.Read(nil)
	if g < 0 || g != p.GMin {
		t.Errorf("worn-out noise-free read = %g, want GMin %g", g, p.GMin)
	}
}

// TestDeviceAgingBelowEnduranceIsFree pins the other side of the limit:
// any number of writes at or under Endurance leaves the full dynamic range
// intact, bit for bit.
func TestDeviceAgingBelowEnduranceIsFree(t *testing.T) {
	p := DefaultParams()
	p.Endurance = 50
	p.DriftPerWrite = 0.1
	d := mustDevice(t, p)
	for i := 0; i < 50; i++ {
		if _, err := d.Program(p.Levels - 1); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Conductance(); g != p.GMax {
		t.Errorf("conductance at the endurance boundary = %g, want GMax %g", g, p.GMax)
	}
	if h := d.Health(); h != 1 {
		t.Errorf("Health at the endurance boundary = %g, want 1", h)
	}
}

func TestDeviceHealthMonotoneInWrites(t *testing.T) {
	p := DefaultParams()
	p.Endurance = 0
	p.DriftPerWrite = 0.001
	d := mustDevice(t, p)
	prev := d.Health()
	for i := 0; i < 50; i++ {
		if _, err := d.Program(1); err != nil {
			t.Fatal(err)
		}
		h := d.Health()
		if h > prev {
			t.Fatalf("health increased after a write: %g -> %g", prev, h)
		}
		prev = h
	}
}

// Property: stored weight is always within [0,1] and quantization error is
// at most half a level for a fresh device.
func TestStoredWeightProperty(t *testing.T) {
	p := DefaultParams()
	f := func(w float64) bool {
		w = math.Abs(math.Mod(w, 1.0)) // fold into [0,1)
		d, err := NewDevice(p)
		if err != nil {
			return false
		}
		stored, _, err := d.ProgramWeight(w)
		if err != nil {
			return false
		}
		if stored < 0 || stored > 1 {
			return false
		}
		halfLevel := 0.5 / float64(p.Levels-1)
		return math.Abs(stored-w) <= halfLevel+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogicFabricPrimitives(t *testing.T) {
	led := energy.NewLedger()
	f, err := NewLogicFabric(8, led)
	if err != nil {
		t.Fatal(err)
	}

	// IMP truth table: q' = ¬p ∨ q.
	cases := []struct{ p, q, want bool }{
		{false, false, true},
		{false, true, true},
		{true, false, false},
		{true, true, true},
	}
	for _, c := range cases {
		if err := f.Set(0, c.p); err != nil {
			t.Fatal(err)
		}
		if err := f.Set(1, c.q); err != nil {
			t.Fatal(err)
		}
		if err := f.Imp(0, 1); err != nil {
			t.Fatal(err)
		}
		got, _ := f.Get(1)
		if got != c.want {
			t.Errorf("IMP(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}

	if err := f.Set(2, true); err != nil {
		t.Fatal(err)
	}
	if err := f.False(2); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Get(2); got {
		t.Error("FALSE left bit set")
	}

	if led.Total().EnergyPJ == 0 {
		t.Error("logic pulses charged no energy")
	}
}

func TestLogicFabricGates(t *testing.T) {
	f, err := NewLogicFabric(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	bools := []bool{false, true}
	for _, p := range bools {
		for _, q := range bools {
			set := func(i int, v bool) {
				if err := f.Set(i, v); err != nil {
					t.Fatal(err)
				}
			}
			set(0, p)
			set(1, q)

			if err := f.Nand(0, 1, 2); err != nil {
				t.Fatal(err)
			}
			if got, _ := f.Get(2); got != !(p && q) {
				t.Errorf("NAND(%v,%v) = %v", p, q, got)
			}

			if err := f.And(0, 1, 3, 4); err != nil {
				t.Fatal(err)
			}
			if got, _ := f.Get(4); got != (p && q) {
				t.Errorf("AND(%v,%v) = %v", p, q, got)
			}

			if err := f.Or(0, 1, 5, 6); err != nil {
				t.Fatal(err)
			}
			if got, _ := f.Get(6); got != (p || q) {
				t.Errorf("OR(%v,%v) = %v", p, q, got)
			}

			if err := f.Xor(0, 1, 7, 8, 9); err != nil {
				t.Fatal(err)
			}
			if got, _ := f.Get(9); got != (p != q) {
				t.Errorf("XOR(%v,%v) = %v", p, q, got)
			}

			if err := f.Not(0, 10); err != nil {
				t.Fatal(err)
			}
			if got, _ := f.Get(10); got != !p {
				t.Errorf("NOT(%v) = %v", p, got)
			}
		}
	}
}

func TestLogicFabricFullAdder(t *testing.T) {
	f, err := NewLogicFabric(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	bools := []bool{false, true}
	for _, a := range bools {
		for _, b := range bools {
			for _, cin := range bools {
				if err := f.Set(0, a); err != nil {
					t.Fatal(err)
				}
				if err := f.Set(1, b); err != nil {
					t.Fatal(err)
				}
				if err := f.Set(2, cin); err != nil {
					t.Fatal(err)
				}
				sum, cout, err := f.FullAdder(0, 1, 2, 3, 4, 5, 6, 7, 8)
				if err != nil {
					t.Fatal(err)
				}
				n := b2i(a) + b2i(b) + b2i(cin)
				if sum != (n%2 == 1) {
					t.Errorf("FullAdder(%v,%v,%v) sum = %v, want %v", a, b, cin, sum, n%2 == 1)
				}
				if cout != (n >= 2) {
					t.Errorf("FullAdder(%v,%v,%v) cout = %v, want %v", a, b, cin, cout, n >= 2)
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Property: in-fabric ripple-carry addition matches integer addition for
// 8-bit words.
func TestLogicFabricAddWordsProperty(t *testing.T) {
	add := func(x, y uint8) bool {
		f, err := NewLogicFabric(64, nil)
		if err != nil {
			return false
		}
		a := make([]int, 8)
		b := make([]int, 8)
		out := make([]int, 8)
		for i := 0; i < 8; i++ {
			a[i], b[i], out[i] = i, 8+i, 16+i
			if err := f.Set(a[i], x&(1<<i) != 0); err != nil {
				return false
			}
			if err := f.Set(b[i], y&(1<<i) != 0); err != nil {
				return false
			}
		}
		carry, err := f.AddWords(a, b, out, 24)
		if err != nil {
			return false
		}
		var got uint16
		for i := 0; i < 8; i++ {
			if v, _ := f.Get(out[i]); v {
				got |= 1 << i
			}
		}
		if carry {
			got |= 1 << 8
		}
		return got == uint16(x)+uint16(y)
	}
	if err := quick.Check(add, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLogicFabricBoundsChecks(t *testing.T) {
	f, err := NewLogicFabric(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Imp(0, 9); err == nil {
		t.Error("Imp out of range should fail")
	}
	if err := f.Set(-1, true); err == nil {
		t.Error("Set(-1) should fail")
	}
	if _, err := f.Get(4); err == nil {
		t.Error("Get(4) should fail")
	}
	if _, err := NewLogicFabric(0, nil); err == nil {
		t.Error("NewLogicFabric(0) should fail")
	}
}

func TestLogicFabricWearTracking(t *testing.T) {
	f, err := NewLogicFabric(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := f.Set(1, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.bits[1].Pulses(); got != 5 {
		t.Errorf("bit 1 pulses = %d, want 5", got)
	}
	if got := f.bits[0].Pulses(); got != 0 {
		t.Errorf("untouched bit pulses = %d, want 0", got)
	}
}
