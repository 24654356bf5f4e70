package service

import (
	"testing"

	"cimrev/internal/cim"
	"cimrev/internal/isa"
	"cimrev/internal/memristor"
	"cimrev/internal/packet"
)

func addr(tile, unit uint16) packet.Address { return packet.Address{Tile: tile, Unit: unit} }

// wornFabric builds a fabric with one heavily reprogrammed crossbar unit,
// a fresh crossbar unit, and a spare.
func wornFabric(t *testing.T, reprogramCount int) (*cim.Fabric, packet.Address, packet.Address, packet.Address) {
	t.Helper()
	cfg := cim.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 8, 8
	fabric, err := cim.NewFabric(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	worn, fresh, spare := addr(0, 0), addr(1, 0), addr(0, 1)
	for _, a := range []packet.Address{worn, fresh, spare} {
		if _, err := fabric.AddUnit(a, cim.KindCrossbar, 1); err != nil {
			t.Fatal(err)
		}
	}
	w := [][]float64{{1, 0}, {0, 1}}
	if err := fabric.Configure(worn, isa.FuncMVM, w); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Configure(fresh, isa.FuncMVM, w); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Configure(spare, isa.FuncMVM, w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reprogramCount; i++ {
		if _, err := fabric.Reprogram(worn, w); err != nil {
			t.Fatal(err)
		}
	}
	return fabric, worn, fresh, spare
}

// lowEndurance returns device params whose endurance is tiny so a few
// reprograms push a unit past the threshold.
func lowEndurance() memristor.DeviceParams {
	p := memristor.DefaultParams()
	p.Endurance = 10
	return p
}

func TestMonitorValidation(t *testing.T) {
	fabric, _, _, _ := wornFabric(t, 0)
	if _, err := NewMonitor(nil, lowEndurance(), 0.5); err == nil {
		t.Error("nil fabric accepted")
	}
	bad := lowEndurance()
	bad.Levels = 0
	if _, err := NewMonitor(fabric, bad, 0.5); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := NewMonitor(fabric, lowEndurance(), 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewMonitor(fabric, lowEndurance(), 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestMonitorInspect(t *testing.T) {
	fabric, worn, fresh, _ := wornFabric(t, 30)
	mon, err := NewMonitor(fabric, lowEndurance(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := mon.Inspect(worn)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := mon.Inspect(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Writes <= fr.Writes {
		t.Errorf("worn writes %d not above fresh %d", wr.Writes, fr.Writes)
	}
	if !wr.AtRisk {
		t.Errorf("worn unit not flagged (wear %.2f)", wr.WearFraction)
	}
	if fr.AtRisk {
		t.Errorf("fresh unit flagged (wear %.2f)", fr.WearFraction)
	}
	if wr.RemainingWrites != 0 {
		t.Errorf("worn remaining = %d, want 0", wr.RemainingWrites)
	}
	if fr.RemainingWrites <= 0 {
		t.Error("fresh unit has no remaining budget")
	}
	if _, err := mon.Inspect(addr(9, 9)); err == nil {
		t.Error("missing unit inspected")
	}
}

func TestMonitorInspectNonCrossbar(t *testing.T) {
	fabric, err := cim.NewFabric(cim.DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := addr(0, 0)
	if _, err := fabric.AddUnit(a, cim.KindCompute, 1); err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(fabric, lowEndurance(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mon.Inspect(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WearFraction != 0 || rep.AtRisk {
		t.Errorf("digital unit reported wear: %+v", rep)
	}
}
