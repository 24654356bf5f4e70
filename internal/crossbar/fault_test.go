package crossbar

import (
	"math/rand"
	"reflect"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/noise"
	"cimrev/internal/parallel"
)

// faultTestConfig is a small array in functional mode: outputs are exact
// integer arithmetic over the stored levels, so any fault-induced change
// is visible bit-for-bit.
func faultTestConfig(spares int) Config {
	return Config{
		Rows: 16, Cols: 8,
		CellBits: 2, WeightBits: 4,
		InputBits: 4, ADCBits: 8,
		Functional: true,
		SpareCols:  spares,
	}
}

func randMatrix(rows, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// TestFaultZeroModelGolden pins the acceptance criterion "with fault rate 0
// all existing goldens are bit-identical": installing a zero model (or no
// model) leaves outputs, program cost, and wear exactly as before.
func TestFaultZeroModelGolden(t *testing.T) {
	w := randMatrix(16, 8, 1)
	in := randVec(16, 2)

	ref, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	refCost, err := ref.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	refOut, _, err := ref.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}

	// Zero model installed explicitly, plus a nonzero spare budget (spares
	// must be inert without faults).
	xb, err := New(faultTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.SetFaults(faultinject.Model{Seed: 99}, NoNoise); err != nil {
		t.Fatal(err)
	}
	cost, err := xb.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := xb.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if cost != refCost {
		t.Fatalf("zero-fault program cost %v != reference %v", cost, refCost)
	}
	if !reflect.DeepEqual(out, refOut) {
		t.Fatal("zero-fault MVM output differs from reference")
	}
	if xb.Writes() != ref.Writes() {
		t.Fatalf("zero-fault wear %d != reference %d", xb.Writes(), ref.Writes())
	}
	if rep := xb.FaultReport(); rep != (faultinject.Report{}) {
		t.Fatalf("zero-fault report not empty: %+v", rep)
	}
}

// TestFaultSetFaultsValidation checks SetFaults rejects bad models and
// enabled models without a source.
func TestFaultSetFaultsValidation(t *testing.T) {
	xb, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.SetFaults(faultinject.Model{StuckLowRate: -1}, noise.NewSource(1)); err == nil {
		t.Fatal("invalid model accepted")
	}
	if err := xb.SetFaults(faultinject.Model{StuckLowRate: 0.1}, NoNoise); err == nil {
		t.Fatal("enabled model without source accepted")
	}
	tile, err := NewTile(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := tile.SetFaults(faultinject.Model{StuckLowRate: 0.1}, NoNoise); err == nil {
		t.Fatal("tile: enabled model without source accepted")
	}
	if Config := (Config{Rows: 4, Cols: 4, CellBits: 2, WeightBits: 4, InputBits: 4, ADCBits: 8, SpareCols: -1}); Config.Validate() == nil {
		t.Fatal("negative SpareCols accepted")
	}
}

// TestFaultRepairWithinSpares pins the headline repair guarantee: at a
// nonzero stuck-cell rate with sufficient spare budget, the self-test
// remaps every bad column and the repaired array's MVM outputs are
// bit-identical to a fault-free array programmed with the same weights.
func TestFaultRepairWithinSpares(t *testing.T) {
	w := randMatrix(16, 8, 3)
	in := randVec(16, 4)

	ref, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Program(w); err != nil {
		t.Fatal(err)
	}
	refOut, _, err := ref.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	refCost, _ := ref.Program(w) // second pass for a clean cost reference

	m := faultinject.Model{StuckLowRate: 0.015, StuckHighRate: 0.015, Seed: 5}
	xb, err := New(faultTestConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.SetFaults(m, m.Root()); err != nil {
		t.Fatal(err)
	}
	cost, err := xb.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	rep := xb.FaultReport()
	if rep.StuckCells == 0 {
		t.Fatalf("seed produced no stuck cells; report %+v", rep)
	}
	if rep.RemappedCols == 0 {
		t.Fatalf("expected at least one remapped column; report %+v", rep)
	}
	if rep.LostCols != 0 {
		t.Fatalf("spare budget 16 exhausted: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("report unhealthy within budget: %+v", rep)
	}
	out, _, err := xb.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, refOut) {
		t.Fatal("repaired array output differs from fault-free reference")
	}
	// No free repairs: remapping and stuck-cell retry trains must cost
	// strictly more than the clean program pass.
	if cost.EnergyPJ <= refCost.EnergyPJ || cost.LatencyPS <= refCost.LatencyPS {
		t.Fatalf("repair cost %v not above clean cost %v", cost, refCost)
	}
}

// TestFaultSpareExhaustion pins non-silent degradation: with no spares and
// a high stuck rate, columns are lost, the report says so, and outputs
// deviate from the fault-free reference.
func TestFaultSpareExhaustion(t *testing.T) {
	w := randMatrix(16, 8, 3)
	in := randVec(16, 4)

	ref, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Program(w); err != nil {
		t.Fatal(err)
	}
	refOut, _, err := ref.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}

	m := faultinject.Model{StuckLowRate: 0.05, StuckHighRate: 0.05, Seed: 6}
	xb, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.SetFaults(m, m.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	rep := xb.FaultReport()
	if rep.LostCols == 0 {
		t.Fatalf("expected lost columns at 10%% stuck rate with no spares; report %+v", rep)
	}
	if rep.Healthy() {
		t.Fatal("report claims healthy despite lost columns")
	}
	out, _, err := xb.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(out, refOut) {
		t.Fatal("lost columns produced bit-identical outputs — degradation is silent")
	}
	// The functional panel is fused from the stored levels, not the
	// intended ones: the corrupted array still equals the oracle run over
	// what the cells hold, through the four-item block and its remainder.
	ins := [][]float64{in, randVec(16, 5), randVec(16, 6), randVec(16, 7), randVec(16, 8)}
	got, _, err := xb.MVMBatch(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		if want := naiveMVMStored(xb.cfg, w, in, NoNoise, xb.sliceT); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("item %d: corrupted array %v != oracle over stored levels %v", i, got[i], want)
		}
	}
}

// TestFaultTransientRetries pins program-and-verify: transient write
// failures are absorbed by escalating retry trains, every retry pulse is
// charged into the cost ledger and wear counter, and the settled array is
// bit-identical to fault-free.
func TestFaultTransientRetries(t *testing.T) {
	w := randMatrix(16, 8, 7)
	in := randVec(16, 8)

	ref, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	refCost, err := ref.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	refOut, _, err := ref.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}

	m := faultinject.Model{WriteFailRate: 0.3, Seed: 9}
	xb, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.SetFaults(m, m.Root()); err != nil {
		t.Fatal(err)
	}
	cost, err := xb.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	rep := xb.FaultReport()
	if rep.RetryPulses == 0 {
		t.Fatalf("30%% pulse-failure rate produced no retries: %+v", rep)
	}
	if rep.LostCols != 0 || rep.RemappedCols != 0 {
		t.Fatalf("transient failures must settle without remap: %+v", rep)
	}
	out, _, err := xb.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, refOut) {
		t.Fatal("settled array output differs from fault-free reference")
	}
	// The ledger charges every retry: energy strictly above the clean
	// pass, and wear reflects real pulses, not logical cells.
	if cost.EnergyPJ <= refCost.EnergyPJ {
		t.Fatalf("retry energy %g not above clean %g", cost.EnergyPJ, refCost.EnergyPJ)
	}
	if cost.LatencyPS <= refCost.LatencyPS {
		t.Fatalf("retry latency %d not above clean %d", cost.LatencyPS, refCost.LatencyPS)
	}
	cells := int64(16 * 8 * 2) // rows*cols*slices
	if xb.Writes() != cells+rep.RetryPulses {
		t.Fatalf("wear %d != cells %d + retries %d", xb.Writes(), cells, rep.RetryPulses)
	}
}

// TestFaultDriftDegradesAcrossEpochs pins the endurance-drift model: a
// drifting array verifies clean (no remap) but its outputs pull away from
// the reference as program epochs accumulate.
func TestFaultDriftDegradesAcrossEpochs(t *testing.T) {
	w := randMatrix(16, 8, 11)
	in := randVec(16, 12)

	ref, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Program(w); err != nil {
		t.Fatal(err)
	}
	refOut, _, err := ref.MVM(in, NoNoise)
	if err != nil {
		t.Fatal(err)
	}

	m := faultinject.Model{DriftRate: 1, DriftMax: 0.2, Seed: 13}
	xb, err := New(faultTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := xb.SetFaults(m, m.Root()); err != nil {
		t.Fatal(err)
	}

	dev := func(out []float64) float64 {
		var d float64
		for i := range out {
			if e := out[i] - refOut[i]; e >= 0 {
				d += e
			} else {
				d -= e
			}
		}
		return d
	}

	var firstDev, lastDev float64
	for epoch := 0; epoch < 6; epoch++ {
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		rep := xb.FaultReport()
		if rep.DriftCells == 0 {
			t.Fatalf("DriftRate 1 found no drifters: %+v", rep)
		}
		if rep.RemappedCols != 0 || rep.LostCols != 0 {
			t.Fatalf("drift must not trigger remap (verify passes before relaxation): %+v", rep)
		}
		out, _, err := xb.MVM(in, NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			firstDev = dev(out)
		}
		lastDev = dev(out)
	}
	if xb.FaultEpoch() != 6 {
		t.Fatalf("fault epoch %d, want 6", xb.FaultEpoch())
	}
	if !(lastDev > firstDev && lastDev > 0) {
		t.Fatalf("drift must compound: epoch-1 deviation %g, epoch-6 %g", firstDev, lastDev)
	}
}

// TestFaultDeterministicReplay pins reproducibility: two arrays with the
// same model and seed produce identical reports, costs, wear, and outputs.
func TestFaultDeterministicReplay(t *testing.T) {
	w := randMatrix(16, 8, 15)
	in := randVec(16, 16)
	m := faultinject.Model{
		StuckLowRate: 0.02, StuckHighRate: 0.01,
		DriftRate: 0.05, DriftMax: 0.1,
		WriteFailRate: 0.2, Seed: 17,
	}
	run := func() ([]float64, faultinject.Report, int64, int64, float64) {
		xb, err := New(faultTestConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := xb.SetFaults(m, m.Root()); err != nil {
			t.Fatal(err)
		}
		cost, err := xb.Program(w)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := xb.MVM(in, NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		return out, xb.FaultReport(), xb.Writes(), cost.LatencyPS, cost.EnergyPJ
	}
	o1, r1, w1, l1, e1 := run()
	o2, r2, w2, l2, e2 := run()
	if !reflect.DeepEqual(o1, o2) || r1 != r2 || w1 != w2 || l1 != l2 || e1 != e2 {
		t.Fatalf("fault replay diverged: reports %+v vs %+v", r1, r2)
	}
}

// TestFaultTileParallelEquivalence pins the sweep-determinism acceptance
// criterion at the tile layer: a faulty multi-block tile programs to
// identical reports, costs, and outputs at pool widths 1, 4, and 16.
func TestFaultTileParallelEquivalence(t *testing.T) {
	defer parallel.SetWidth(parallel.Width())
	w := randMatrix(40, 20, 19) // 3x3 block grid at 16x8 arrays
	in := randVec(40, 20)
	m := faultinject.Model{
		StuckLowRate: 0.02, StuckHighRate: 0.02,
		WriteFailRate: 0.1, Seed: 23,
	}

	type snap struct {
		out  []float64
		rep  faultinject.Report
		cost [2]float64
	}
	runAt := func(width int) snap {
		parallel.SetWidth(width)
		tile, err := NewTile(faultTestConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := tile.SetFaults(m, m.Root()); err != nil {
			t.Fatal(err)
		}
		cost, err := tile.Program(w)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := tile.MVM(in, NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		return snap{out, tile.FaultReport(), [2]float64{float64(cost.LatencyPS), cost.EnergyPJ}}
	}

	ref := runAt(1)
	if ref.rep.StuckCells == 0 {
		t.Fatalf("tile seed produced no faults: %+v", ref.rep)
	}
	for _, width := range []int{4, 16} {
		got := runAt(width)
		if !reflect.DeepEqual(got.out, ref.out) {
			t.Fatalf("width %d: outputs diverge from serial", width)
		}
		if got.rep != ref.rep {
			t.Fatalf("width %d: report %+v != serial %+v", width, got.rep, ref.rep)
		}
		if got.cost != ref.cost {
			t.Fatalf("width %d: cost %v != serial %v", width, got.cost, ref.cost)
		}
	}
}
