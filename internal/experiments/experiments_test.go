package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cimrev/internal/energy"
)

func TestFig2Shape(t *testing.T) {
	res, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 10 {
		t.Fatalf("Fig2 rows = %d", len(res.Rows))
	}
	// Shape criterion E1: monotone decade decline from >= 1 byte/FLOP to
	// <= 0.1, total decline >= 30x, negative trend slope.
	if res.Decades[0].Ratio < 1 {
		t.Errorf("earliest decade ratio = %g, want >= 1", res.Decades[0].Ratio)
	}
	last := res.Decades[len(res.Decades)-1]
	if last.Ratio > 0.2 {
		t.Errorf("latest decade ratio = %g, want <= 0.2", last.Ratio)
	}
	for i := 1; i < len(res.Decades); i++ {
		if res.Decades[i].Ratio >= res.Decades[i-1].Ratio {
			t.Errorf("decade %d not declining", res.Decades[i].Year)
		}
	}
	if res.Slope >= 0 {
		t.Errorf("slope = %g, want negative", res.Slope)
	}
	if res.TotalDecline < 30 {
		t.Errorf("total decline = %g, want >= 30", res.TotalDecline)
	}
	text := res.Format()
	if !strings.Contains(text, "Fig 2") || !strings.Contains(text, "Cray-1") {
		t.Error("Format missing content")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Shape criterion E2: scaling ordering CIM > distributed > parallel,
	// with parallel at "100s of cores" and CIM far beyond exascale-rack
	// counts.
	p, d, c := res.Parallel, res.Distributed, res.InMemory
	if !(c.MaxScale > d.MaxScale && d.MaxScale > p.MaxScale) {
		t.Errorf("scaling order wrong: parallel %d, distributed %d, CIM %d",
			p.MaxScale, d.MaxScale, c.MaxScale)
	}
	if p.MaxScale < 64 || p.MaxScale > 2048 {
		t.Errorf("parallel max scale = %d, want 100s of cores", p.MaxScale)
	}
	if c.MaxScale < 100_000 {
		t.Errorf("CIM max scale = %d, want no perceived limit (>= 1e5)", c.MaxScale)
	}
	// Failure tolerance: whole partition vs machine share vs ~nothing.
	if p.WorkLostPct != 100 {
		t.Errorf("parallel work lost = %g, want 100", p.WorkLostPct)
	}
	if d.WorkLostPct <= c.WorkLostPct || d.WorkLostPct >= p.WorkLostPct {
		t.Errorf("failure ordering wrong: %g / %g / %g", p.WorkLostPct, d.WorkLostPct, c.WorkLostPct)
	}
	if c.WorkLostPct > 1 {
		t.Errorf("CIM work lost = %g%%, want ~0 (stream redirection)", c.WorkLostPct)
	}
	// Security: reachable state shrinks from whole partition to stream.
	if !(c.ReachablePct < d.ReachablePct && d.ReachablePct < p.ReachablePct) {
		t.Errorf("security ordering wrong: %g / %g / %g", p.ReachablePct, d.ReachablePct, c.ReachablePct)
	}
	// Programming models are the paper's row verbatim.
	if p.ProgrammingModel != "multi-threaded" || d.ProgrammingModel != "message passing" || c.ProgrammingModel != "dataflow" {
		t.Error("programming model row wrong")
	}
	text := res.Format()
	if !strings.Contains(text, "dataflow") || !strings.Contains(text, "scaling") {
		t.Error("Format missing content")
	}
}

func TestTable2Agreement(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(res.Rows))
	}
	// Shape criterion E3: full agreement with the paper's CIM column.
	if res.Agreement < 1.0 {
		for _, row := range res.Rows {
			if !row.Agrees() {
				t.Errorf("%v: measured %v, paper %v (speedup %.2f)",
					row.Class, row.Measured, row.Paper, row.Speedup)
			}
		}
	}
	text := res.Format()
	if !strings.Contains(text, "Neural Networks") || !strings.Contains(text, "agreement") {
		t.Error("Format missing content")
	}
}

func TestSecVIBands(t *testing.T) {
	// Shape criterion E4-E6 over the realistic layer range.
	res, err := SecVI([]int{512, 1024, 2048, 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.LatVsCPU < 10 || row.LatVsCPU > 1e4 {
			t.Errorf("n=%d lat/CPU = %g outside [10, 1e4]", row.N, row.LatVsCPU)
		}
		if row.LatVsGPU < 1 || row.LatVsGPU > 1e2 {
			t.Errorf("n=%d lat/GPU = %g outside [1, 1e2]", row.N, row.LatVsGPU)
		}
		if row.PowVsCPU < 1e2 || row.PowVsCPU > 1e6 {
			t.Errorf("n=%d pow/CPU = %g outside [1e2, 1e6]", row.N, row.PowVsCPU)
		}
		if row.PowVsCPUSingle < 1e3 || row.PowVsCPUSingle > 1e6 {
			t.Errorf("n=%d single-sample pow/CPU = %g outside the paper band [1e3, 1e6]", row.N, row.PowVsCPUSingle)
		}
		if row.PowVsGPU < 10 || row.PowVsGPU > 1e3 {
			t.Errorf("n=%d pow/GPU = %g outside [10, 1e3]", row.N, row.PowVsGPU)
		}
		if row.BWVsCPU < 1e3 || row.BWVsCPU > 1e7 {
			t.Errorf("n=%d bw/CPU = %g outside [1e3, 1e7]", row.N, row.BWVsCPU)
		}
		// "Comparable to modern GPUs": within ~1.5 orders either way.
		if row.BWVsGPU < 0.02 || row.BWVsGPU > 50 {
			t.Errorf("n=%d bw/GPU = %g not comparable", row.N, row.BWVsGPU)
		}
	}
	// Ratios grow with layer size (the win widens as data grows).
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.LatVsCPU <= first.LatVsCPU {
		t.Error("latency advantage does not grow with size")
	}
	if !strings.Contains(res.Format(), "paper bands") {
		t.Error("Format missing bands")
	}
}

func TestSecVIValidation(t *testing.T) {
	if _, err := SecVI(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := SecVI([]int{0}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestScaleShape(t *testing.T) {
	boards := []int{1, 2, 4, 8}
	res, err := Scale(boards, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*len(boards) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Shape criterion E7: near-linear scaling; hiding removes nearly the
	// whole update stall.
	for _, row := range res.Rows {
		if row.Efficiency < 0.5 || row.Efficiency > 1.15 {
			t.Errorf("%s boards=%d efficiency = %g outside [0.5, 1.15]", row.Net, row.Boards, row.Efficiency)
		}
		if row.UpdateHiddenPct >= row.UpdateStallPct/10 {
			t.Errorf("%s boards=%d hiding ineffective: %g%% vs %g%%",
				row.Net, row.Boards, row.UpdateHiddenPct, row.UpdateStallPct)
		}
		if row.UpdateStallPct < 10 {
			t.Errorf("%s boards=%d stall = %g%%, expected write asymmetry to dominate", row.Net, row.Boards, row.UpdateStallPct)
		}
	}
	// The deep net's pipeline fill does not split across boards: its
	// efficiency never rises with boards, and falls below the one-layer
	// net's from 4 boards on.
	wide, deep := res.Rows[:len(boards)], res.Rows[len(boards):]
	for i := range deep {
		if i > 0 && deep[i].Efficiency > deep[i-1].Efficiency {
			t.Errorf("%s efficiency rose from %g at %d boards to %g at %d",
				deep[i].Net, deep[i-1].Efficiency, deep[i-1].Boards, deep[i].Efficiency, deep[i].Boards)
		}
		if deep[i].Boards >= 4 && deep[i].Efficiency >= wide[i].Efficiency {
			t.Errorf("boards=%d: %s efficiency %g not below %s's %g",
				deep[i].Boards, deep[i].Net, deep[i].Efficiency, wide[i].Net, wide[i].Efficiency)
		}
	}
	// Boards rewrite in parallel, so the update stalls for one board's write
	// at every board count. A row holds only the shares of wall-clock, so the
	// stall latency comes back from them: the hidden write is one eDRAM
	// access h, which fixes the batch latency, h x (100/hidden - 1), and the
	// stall is that batch latency x stall/(100 - stall).
	stall := func(r ScaleRow) float64 {
		batch := float64(energy.EDRAMAccessLatencyPS) * (100/r.UpdateHiddenPct - 1)
		return batch * r.UpdateStallPct / (100 - r.UpdateStallPct)
	}
	for _, rows := range [][]ScaleRow{wide, deep} {
		one := stall(rows[0])
		for _, r := range rows[1:] {
			if got := stall(r); math.Abs(got-one) > 1e-6*one {
				t.Errorf("%s boards=%d: update stalls %.0f ps, one board's write is %.0f ps", r.Net, r.Boards, got, one)
			}
		}
	}
	if !strings.Contains(res.Format(), "boards") {
		t.Error("Format missing content")
	}
}

// TestScaleReferenceIndependentOfBoardList: every row is priced against one
// board's batch, whether or not the board list names one board.
func TestScaleReferenceIndependentOfBoardList(t *testing.T) {
	got, err := Scale([]int{2, 4}, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Scale([]int{1, 2, 4}, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want []ScaleRow
	for _, row := range full.Rows {
		if row.Boards != 1 {
			want = append(want, row)
		}
	}
	if !slices.Equal(got.Rows, want) {
		t.Errorf("Scale([2 4]) rows differ from those of Scale([1 2 4]):\n got  %+v\n want %+v", got.Rows, want)
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := Scale(nil, 128, 8); err == nil {
		t.Error("empty boards accepted")
	}
	if _, err := Scale([]int{1}, 0, 8); err == nil {
		t.Error("zero layer accepted")
	}
	if _, err := Scale([]int{1}, 128, 0); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := Scale([]int{1, 0}, 128, 8); err == nil {
		t.Error("zero boards accepted")
	}
	if _, err := Scale([]int{-2}, 128, 8); err == nil {
		t.Error("negative boards accepted")
	}
}

func TestScalingEfficiencyEdgeCases(t *testing.T) {
	if scalingEfficiency(energy.Zero, energy.Zero, 4) != 0 {
		t.Error("zero costs should yield 0")
	}
	one := energy.Cost{LatencyPS: 100}
	four := energy.Cost{LatencyPS: 25}
	if got := scalingEfficiency(one, four, 4); got != 1 {
		t.Errorf("perfect scaling = %g, want 1", got)
	}
}

func TestRatioHelper(t *testing.T) {
	if ratio(10, 0) != 0 {
		t.Error("zero denominator should yield 0")
	}
	if math.Abs(ratio(10, 4)-2.5) > 1e-12 {
		t.Error("ratio wrong")
	}
}

func TestADCAblationShape(t *testing.T) {
	res, err := ADCAblation([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Accuracy recovers with resolution: 8-bit must be near software, and
	// must beat 2-bit; energy must grow with resolution.
	r2, r8 := res.Rows[0], res.Rows[2]
	if r8.Accuracy < r8.SoftwareAccuracy-0.05 {
		t.Errorf("8-bit accuracy %.2f fell more than 5pp below software %.2f",
			r8.Accuracy, r8.SoftwareAccuracy)
	}
	if r2.Accuracy >= r8.Accuracy {
		t.Errorf("2-bit accuracy %.2f not below 8-bit %.2f", r2.Accuracy, r8.Accuracy)
	}
	if r8.EnergyPJ <= r2.EnergyPJ {
		t.Errorf("8-bit energy %g not above 2-bit %g", r8.EnergyPJ, r2.EnergyPJ)
	}
	if !strings.Contains(res.Format(), "ADC bits") {
		t.Error("Format missing content")
	}
}

func TestADCAblationValidation(t *testing.T) {
	if _, err := ADCAblation(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := ADCAblation([]int{0}); err == nil {
		t.Error("zero bits accepted")
	}
}

func TestNoiseAblationShape(t *testing.T) {
	res, err := NoiseAblation([]float64{0, 0.02, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	clean, mild, heavy := res.Rows[0], res.Rows[1], res.Rows[2]
	// Clean and mild noise preserve accuracy (NN inference is noise
	// tolerant); heavy noise degrades it.
	if clean.Accuracy < clean.SoftwareAccuracy-0.05 {
		t.Errorf("noise-free accuracy %.2f below software %.2f", clean.Accuracy, clean.SoftwareAccuracy)
	}
	if mild.Accuracy < clean.SoftwareAccuracy-0.1 {
		t.Errorf("2%% noise accuracy %.2f collapsed", mild.Accuracy)
	}
	if heavy.Accuracy >= mild.Accuracy {
		t.Errorf("30%% noise accuracy %.2f not below mild %.2f", heavy.Accuracy, mild.Accuracy)
	}
	if !strings.Contains(res.Format(), "sigma") {
		t.Error("Format missing content")
	}
}

func TestNoiseAblationValidation(t *testing.T) {
	if _, err := NoiseAblation(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := NoiseAblation([]float64{-0.1}); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestParallelismSweepShape(t *testing.T) {
	res, err := ParallelismSweep([]float64{0.1, 0.3, 0.6, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// Speedup is monotone in parallelism, and an NN kernel at high
	// parallelism lands in the "high" benefit regime.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Speedup < res.Rows[i-1].Speedup {
			t.Errorf("speedup not monotone at p=%g", res.Rows[i].Parallelism)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Speedup < 5 {
		t.Errorf("at p=%.2f speedup = %.2f, want high (>= 5)", last.Parallelism, last.Speedup)
	}
	// Serial bottlenecks must visibly idle the arrays.
	if last.Speedup < 2*first.Speedup {
		t.Errorf("parallelism dependence too weak: %.2fx at p=%.2f vs %.2fx at p=%.2f",
			first.Speedup, first.Parallelism, last.Speedup, last.Parallelism)
	}
	if !strings.Contains(res.Format(), "parallelism") {
		t.Error("Format missing content")
	}
}

func TestParallelismSweepValidation(t *testing.T) {
	if _, err := ParallelismSweep(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := ParallelismSweep([]float64{2.0}); err == nil {
		t.Error("parallelism > 1 accepted")
	}
}
