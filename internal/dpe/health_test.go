package dpe

import (
	"math/rand"
	"reflect"
	"testing"

	"cimrev/internal/faultinject"
	"cimrev/internal/nn"
	"cimrev/internal/parallel"
)

// healthTestConfig shrinks the arrays so a small MLP spans multiple
// columns per tile and stuck faults land at test-friendly rates.
func healthTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Crossbar.Rows = 32
	cfg.Crossbar.Cols = 32
	return cfg
}

func healthTestNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := nn.NewMLP("health-mlp", []int{24, 32, 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestHealthCheckNoFaults: a fault-free engine scans healthy with stage
// entries whose reports are all zero.
func TestHealthCheckNoFaults(t *testing.T) {
	eng, err := New(healthTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h := eng.HealthCheck(); !h.Healthy() || len(h.Stages) != 0 {
		t.Fatalf("unloaded engine health: %+v", h)
	}
	if _, err := eng.Load(healthTestNet(t, 1)); err != nil {
		t.Fatal(err)
	}
	h := eng.HealthCheck()
	if !h.Healthy() {
		t.Fatalf("fault-free engine unhealthy: %s", h)
	}
	if len(h.Stages) == 0 {
		t.Fatal("no crossbar-bearing stages reported")
	}
	if h.Total != (faultinject.Report{}) {
		t.Fatalf("fault-free engine has nonzero report: %+v", h.Total)
	}
	cost, h2, err := eng.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if cost.LatencyPS != 0 || cost.EnergyPJ != 0 {
		t.Fatalf("repairing a healthy engine charged %v", cost)
	}
	if !h2.Healthy() {
		t.Fatalf("post-repair health: %s", h2)
	}
}

// TestRepairedEngineMatchesFaultFree pins the acceptance criterion: at a
// nonzero stuck-cell rate within the spare budget, the repaired engine's
// inference outputs are bit-identical to the fault-free engine's.
func TestRepairedEngineMatchesFaultFree(t *testing.T) {
	net := healthTestNet(t, 2)
	in := make([]float64, net.InSize())
	rng := rand.New(rand.NewSource(3))
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}

	ref, err := New(healthTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	refProg, err := ref.Load(net)
	if err != nil {
		t.Fatal(err)
	}
	refOut, refCost, err := ref.Infer(in)
	if err != nil {
		t.Fatal(err)
	}

	cfg := healthTestConfig()
	cfg.Crossbar.SpareCols = 24
	cfg.Faults = faultinject.Model{StuckLowRate: 0.001, StuckHighRate: 0.001, Seed: 7}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eng.Load(net)
	if err != nil {
		t.Fatal(err)
	}
	h := eng.HealthCheck()
	if h.Total.StuckCells == 0 {
		t.Fatalf("seed found no stuck cells: %s", h)
	}
	if !h.Healthy() {
		t.Fatalf("spare budget 24 exhausted: %s", h)
	}
	out, cost, err := eng.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, refOut) {
		t.Fatal("repaired engine output differs from fault-free engine")
	}
	if cost != refCost {
		t.Fatalf("inference cost changed under repair: %v != %v", cost, refCost)
	}
	// Programming, by contrast, must have cost more: retries + remaps.
	if prog.EnergyPJ <= refProg.EnergyPJ {
		t.Fatalf("faulty load energy %g not above clean %g", prog.EnergyPJ, refProg.EnergyPJ)
	}
}

// TestSpareExhaustionReported pins the degradation path: past the spare
// budget the engine reports lost columns and HealthCheck flags unhealthy.
func TestSpareExhaustionReported(t *testing.T) {
	net := healthTestNet(t, 4)
	cfg := healthTestConfig()
	cfg.Crossbar.SpareCols = 0
	cfg.Faults = faultinject.Model{StuckLowRate: 0.03, StuckHighRate: 0.03, Seed: 11}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	h := eng.HealthCheck()
	if h.Healthy() || h.Total.LostCols == 0 {
		t.Fatalf("expected lost columns at 6%% stuck with no spares: %s", h)
	}
	// Stuck-cell losses are position-pinned: Repair re-runs the write
	// loop (charging real cost) but cannot conjure spare columns.
	cost, h2, err := eng.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if cost.EnergyPJ == 0 {
		t.Fatal("repair attempt charged nothing")
	}
	if h2.Healthy() {
		t.Fatalf("stuck-cell losses cannot repair without spares: %s", h2)
	}
}

// TestRepairClearsTransientLosses: when losses come from transient write
// failures, a Repair pass re-rolls the pulse draws on a new program epoch
// and recovers the columns.
func TestRepairClearsTransientLosses(t *testing.T) {
	net := healthTestNet(t, 5)
	cfg := healthTestConfig()
	cfg.Crossbar.SpareCols = 0
	// Extreme per-pulse failure rate: some cells exhaust all 63 pulses.
	cfg.Faults = faultinject.Model{WriteFailRate: 0.9, Seed: 4}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(net); err != nil {
		t.Fatal(err)
	}
	h := eng.HealthCheck()
	if h.Healthy() {
		t.Skipf("seed 4 produced no transient losses (report %s); pick a harsher seed", h)
	}
	for attempt := 0; attempt < 8 && !h.Healthy(); attempt++ {
		if _, h, err = eng.Repair(); err != nil {
			t.Fatal(err)
		}
	}
	if !h.Healthy() {
		t.Fatalf("transient losses did not clear after repairs: %s", h)
	}

	// The recovered engine now computes exactly what a fault-free one does.
	ref, err := New(healthTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Load(net); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, net.InSize())
	rng := rand.New(rand.NewSource(6))
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	refOut, _, err := ref.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := eng.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, refOut) {
		t.Fatal("recovered engine output differs from fault-free engine")
	}
}

// TestFaultHealthParallelEquivalence pins engine-level fault determinism:
// load + health + outputs identical at pool widths 1/4/16.
func TestFaultHealthParallelEquivalence(t *testing.T) {
	defer parallel.SetWidth(parallel.Width())
	net := healthTestNet(t, 8)
	in := make([]float64, net.InSize())
	rng := rand.New(rand.NewSource(9))
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}

	type snap struct {
		out    []float64
		total  faultinject.Report
		energy float64
	}
	runAt := func(width int) snap {
		parallel.SetWidth(width)
		cfg := healthTestConfig()
		cfg.Crossbar.SpareCols = 8
		cfg.Faults = faultinject.Model{
			StuckLowRate: 0.01, StuckHighRate: 0.01,
			WriteFailRate: 0.2, DriftRate: 0.05, DriftMax: 0.1,
			Seed: 21,
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loadCost, err := eng.Load(net)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := eng.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		return snap{out, eng.HealthCheck().Total, loadCost.EnergyPJ}
	}

	ref := runAt(1)
	if ref.total.StuckCells == 0 {
		t.Fatalf("seed found no faults: %+v", ref.total)
	}
	for _, width := range []int{4, 16} {
		got := runAt(width)
		if !reflect.DeepEqual(got.out, ref.out) {
			t.Fatalf("width %d: outputs diverge from serial", width)
		}
		if got.total != ref.total {
			t.Fatalf("width %d: report %+v != serial %+v", width, got.total, ref.total)
		}
		if got.energy != ref.energy {
			t.Fatalf("width %d: load energy %g != serial %g", width, got.energy, ref.energy)
		}
	}
}
