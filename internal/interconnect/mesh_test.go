package interconnect

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cimrev/internal/energy"
	"cimrev/internal/metrics"
)

func newMesh(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := NewMesh(w, h, 10e9, metrics.NewRegistry())
	if err != nil {
		t.Fatalf("NewMesh: %v", err)
	}
	return m
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(0, 4, 1e9, nil); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewMesh(4, -1, 1e9, nil); err == nil {
		t.Error("negative height should fail")
	}
	if _, err := NewMesh(4, 4, 0, nil); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestRouteXY(t *testing.T) {
	m := newMesh(t, 4, 4)
	path, err := m.Route(Coord{0, 0}, Coord{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Coord{{1, 0}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(path, want) {
		t.Errorf("Route = %v, want %v", path, want)
	}
}

func TestRouteSelf(t *testing.T) {
	m := newMesh(t, 4, 4)
	path, err := m.Route(Coord{1, 1}, Coord{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 0 {
		t.Errorf("self route = %v, want empty", path)
	}
}

func TestRouteNegativeDirections(t *testing.T) {
	m := newMesh(t, 4, 4)
	path, err := m.Route(Coord{3, 3}, Coord{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Errorf("path length = %d, want 6", len(path))
	}
	if path[len(path)-1] != (Coord{0, 0}) {
		t.Errorf("path ends at %v, want (0,0)", path[len(path)-1])
	}
}

func TestRouteBounds(t *testing.T) {
	m := newMesh(t, 2, 2)
	if _, err := m.Route(Coord{-1, 0}, Coord{0, 0}); err == nil {
		t.Error("out-of-bounds src should fail")
	}
	if _, err := m.Route(Coord{0, 0}, Coord{2, 0}); err == nil {
		t.Error("out-of-bounds dst should fail")
	}
}

// Property: route length equals Manhattan distance.
func TestRouteManhattanProperty(t *testing.T) {
	m := newMesh(t, 8, 8)
	f := func(sx, sy, dx, dy uint8) bool {
		src := Coord{int(sx) % 8, int(sy) % 8}
		dst := Coord{int(dx) % 8, int(dy) % 8}
		path, err := m.Route(src, dst)
		if err != nil {
			return false
		}
		manhattan := abs(src.X-dst.X) + abs(src.Y-dst.Y)
		return len(path) == manhattan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTransferCostScalesWithDistanceAndSize(t *testing.T) {
	m := newMesh(t, 8, 8)
	near, err := m.Transfer(Coord{0, 0}, Coord{1, 0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	far, err := m.Transfer(Coord{0, 0}, Coord{7, 7}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if far.LatencyPS <= near.LatencyPS {
		t.Errorf("far transfer %d ps not slower than near %d ps", far.LatencyPS, near.LatencyPS)
	}
	small, err := m.Transfer(Coord{0, 0}, Coord{1, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if near.LatencyPS <= small.LatencyPS {
		t.Errorf("1000B transfer %d ps not slower than 10B %d ps", near.LatencyPS, small.LatencyPS)
	}
	if near.EnergyPJ <= small.EnergyPJ {
		t.Error("larger transfer should cost more energy")
	}
}

func TestTransferZeroAndSelf(t *testing.T) {
	m := newMesh(t, 4, 4)
	c, err := m.Transfer(Coord{1, 1}, Coord{1, 1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c != energy.Zero {
		t.Errorf("self transfer cost = %v, want zero", c)
	}
	c, err = m.Transfer(Coord{0, 0}, Coord{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c != energy.Zero {
		t.Errorf("zero-byte transfer cost = %v, want zero", c)
	}
	if _, err := m.Transfer(Coord{0, 0}, Coord{1, 1}, -1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestMeshMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m, err := NewMesh(4, 4, 1e9, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transfer(Coord{0, 0}, Coord{3, 3}, 100); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["mesh.transfers"] != 1 {
		t.Errorf("mesh.transfers = %d, want 1", s.Counters["mesh.transfers"])
	}
	if got := s.Histograms["mesh.hops"].Mean(); got != 6 {
		t.Errorf("mesh.hops mean = %g, want 6", got)
	}
}

func TestPhotonicLinkDistanceIndependentEnergy(t *testing.T) {
	short, err := NewPhotonicLink(0.1, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewPhotonicLink(1000, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := short.Transfer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := long.Transfer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if cs.EnergyPJ != cl.EnergyPJ {
		t.Errorf("photonic energy must be distance-independent: %g vs %g", cs.EnergyPJ, cl.EnergyPJ)
	}
	if cl.LatencyPS <= cs.LatencyPS {
		t.Errorf("longer link must add time of flight: %d vs %d", cl.LatencyPS, cs.LatencyPS)
	}
	// 1 km at 2e8 m/s is 5 us of flight.
	flight := cl.LatencyPS - cs.LatencyPS
	wantFlight := energy.PicosecondsFromSeconds((1000 - 0.1) / energy.SpeedOfLightMPerS)
	if math.Abs(float64(flight-wantFlight)) > 1e6 {
		t.Errorf("flight delta = %d ps, want ~%d ps", flight, wantFlight)
	}
}

func TestPhotonicLinkValidation(t *testing.T) {
	if _, err := NewPhotonicLink(-1, 1e9); err == nil {
		t.Error("negative length should fail")
	}
	if _, err := NewPhotonicLink(1, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
	l, err := NewPhotonicLink(1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Transfer(-1); err == nil {
		t.Error("negative size should fail")
	}
}
