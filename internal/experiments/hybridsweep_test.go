package experiments

import (
	"testing"

	"cimrev/internal/parallel"
)

// TestHybridSweepCrossover pins the hybrid dispatch acceptance numbers on
// a small grid: the crossover is real (the Von Neumann twin wins the tiny
// single-item cell, the crossbar wins the large batched cell), and the
// auto dispatcher's mixed-workload throughput is at least the best single
// backend's — routing by the cost model must never lose to refusing to
// route.
func TestHybridSweepCrossover(t *testing.T) {
	res, err := HybridSweep([]int{16, 512}, []int{1, 64}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}
	cell := func(size, batch int) HybridCell {
		for _, c := range res.Cells {
			if c.Size == size && c.Batch == batch {
				return c
			}
		}
		t.Fatalf("missing cell (%d, %d)", size, batch)
		return HybridCell{}
	}
	if c := cell(16, 1); c.SpeedupCIM >= 1 {
		t.Errorf("tiny batch-1 cell: CIM speedup %.3f, want < 1 (VN side of the crossover)", c.SpeedupCIM)
	}
	if c := cell(512, 64); c.SpeedupCIM <= 1 {
		t.Errorf("large batched cell: CIM speedup %.3f, want > 1 (CIM side of the crossover)", c.SpeedupCIM)
	}

	if len(res.Mixed) != 3 {
		t.Fatalf("got %d mixed rows, want 3", len(res.Mixed))
	}
	byMode := map[string]HybridMixed{}
	for _, m := range res.Mixed {
		byMode[m.Mode] = m
	}
	cim, vn, auto := byMode["cim"], byMode["vn"], byMode["auto"]
	if cim.Requests == 0 || cim.Requests != vn.Requests || vn.Requests != auto.Requests {
		t.Fatalf("modes served different workloads: %d, %d, %d", cim.Requests, vn.Requests, auto.Requests)
	}
	if cim.VNRouted != 0 || vn.CIMRouted != 0 {
		t.Errorf("forced modes leaked: cim routed %d to vn, vn routed %d to cim", cim.VNRouted, vn.CIMRouted)
	}
	if auto.CIMRouted == 0 || auto.VNRouted == 0 {
		t.Errorf("auto never split the workload (cim %d, vn %d)", auto.CIMRouted, auto.VNRouted)
	}
	if res.AutoSpeedupVsBest < 1 {
		t.Errorf("AutoSpeedupVsBest = %.4f, want >= 1", res.AutoSpeedupVsBest)
	}
	if err := res.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
}

// TestHybridCheck pins the hybrid gate predicate by predicate on struct
// literals: cells on both sides of the crossover, all three dispatch modes
// present, auto at least matching the best single backend (a tie passes).
func TestHybridCheck(t *testing.T) {
	crossover := []HybridCell{{Size: 16, Batch: 1, SpeedupCIM: 0.01}, {Size: 512, Batch: 64, SpeedupCIM: 2.5}}
	mixed := func(cim, vn, auto float64) []HybridMixed {
		return []HybridMixed{
			{Mode: "cim", SimThroughputRPS: cim},
			{Mode: "vn", SimThroughputRPS: vn},
			{Mode: "auto", SimThroughputRPS: auto},
		}
	}
	for _, tc := range []struct {
		name string
		res  HybridResult
		ok   bool
	}{
		{"auto wins", HybridResult{Cells: crossover, Mixed: mixed(1000, 5000, 6000)}, true},
		{"auto ties the best single backend", HybridResult{Cells: crossover, Mixed: mixed(1000, 5000, 5000)}, true},
		{"auto loses to the best single backend", HybridResult{Cells: crossover, Mixed: mixed(1000, 5000, 4999)}, false},
		{"one-sided sweep, CIM everywhere", HybridResult{
			Cells: []HybridCell{{SpeedupCIM: 3.0}, {SpeedupCIM: 2.5}},
			Mixed: mixed(1000, 500, 1000)}, false},
		{"one-sided sweep, VN everywhere", HybridResult{
			Cells: []HybridCell{{SpeedupCIM: 0.1}, {SpeedupCIM: 1}},
			Mixed: mixed(500, 1000, 1000)}, false},
		{"vn mode missing", HybridResult{Cells: crossover, Mixed: []HybridMixed{
			{Mode: "cim", SimThroughputRPS: 1000}, {Mode: "auto", SimThroughputRPS: 5000}}}, false},
	} {
		if err := tc.res.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check() = %v, want pass=%v", tc.name, err, tc.ok)
		}
	}
}

// TestHybridSweepDeterministicAcrossWidths pins that the sweep — engine
// execution included — is a pure function of its arguments at any
// worker-pool width: simulated costs, routing decisions, and counters all
// match between a serial and a wide run.
func TestHybridSweepDeterministicAcrossWidths(t *testing.T) {
	run := func(w int) *HybridResult {
		parallel.SetWidth(w)
		t.Cleanup(func() { parallel.SetWidth(0) })
		res, err := HybridSweep([]int{16, 128}, []int{1, 8}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d differs across widths: %+v vs %+v", i, a.Cells[i], b.Cells[i])
		}
	}
	for i := range a.Mixed {
		if a.Mixed[i] != b.Mixed[i] {
			t.Errorf("mixed row %d differs across widths: %+v vs %+v", i, a.Mixed[i], b.Mixed[i])
		}
	}
}
