package experiments

import (
	"math"
	"testing"

	"cimrev/internal/crossbar"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/suitability"
	"cimrev/internal/workloads"
)

// TestOneBoardPrice pins the single price list behind every simulated
// ratio: the suitability model (Table 2, the parallelism sweep) charges
// in-array work as reads of a programmed default tile, and Section VI's
// aggregate bandwidth counts the same dpe.BoardCrossbars arrays.
func TestOneBoardPrice(t *testing.T) {
	xb := dpe.DefaultConfig().Crossbar
	tile, err := crossbar.NewTile(xb)
	if err != nil {
		t.Fatal(err)
	}
	w := make([][]float64, xb.Rows)
	for i := range w {
		w[i] = make([]float64, xb.Cols)
		for j := range w[i] {
			w[i][j] = math.Sin(float64(i*xb.Cols + j))
		}
	}
	if _, err := tile.Program(w); err != nil {
		t.Fatal(err)
	}
	read := xb.ReadCost(xb.Rows, xb.Cols)
	if got := tile.Cost(); got != read {
		t.Fatalf("programmed tile costs %v per read, board read price %v", got, read)
	}
	if read.LatencyPS != 804_000 || math.Abs(read.EnergyPJ-7382.7) > 0.05 {
		t.Errorf("default array read = %v, want 804 ns and 7382.7 pJ", read)
	}

	// A kernel of n board-wide reads, all in-array and stationary, costs
	// n reads' latency and n × BoardCrossbars reads' energy plus static.
	const n = 1000
	k := workloads.Kernel{
		Flops:          n * dpe.BoardCrossbars * float64(xb.Rows*xb.Cols),
		MVMFrac:        1,
		StationaryFrac: 1,
		Parallelism:    1,
	}
	got, err := suitability.CIMCost(k)
	if err != nil {
		t.Fatal(err)
	}
	wantPS := n * read.LatencyPS
	if d := got.LatencyPS - wantPS; d < -1 || d > 1 {
		t.Errorf("suitability board latency = %d ps, want %d", got.LatencyPS, wantPS)
	}
	wantPJ := n*dpe.BoardCrossbars*read.EnergyPJ + energy.CIMStaticPowerW*float64(wantPS)
	if math.Abs(got.EnergyPJ-wantPJ) > 1e-9*wantPJ {
		t.Errorf("suitability board energy = %g pJ, want %g", got.EnergyPJ, wantPJ)
	}

	res, err := SecVI([]int{512})
	if err != nil {
		t.Fatal(err)
	}
	aggBW := dpe.BoardCrossbars * float64(xb.Rows*xb.Cols) * float64(xb.WeightBits) / 8 /
		(float64(energy.CrossbarReadLatencyPS) * 1e-12)
	if want := aggBW / energy.CPUMemBandwidth; math.Abs(res.Rows[0].BWVsCPU-want) > 1e-12*want {
		t.Errorf("Section VI bandwidth ratio = %g, want %g from dpe.BoardCrossbars", res.Rows[0].BWVsCPU, want)
	}
}
