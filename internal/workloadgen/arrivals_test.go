package workloadgen

import (
	"math"
	"testing"
	"time"

	"cimrev/internal/noise"
	"cimrev/internal/parallel"
)

// processes under test, one per arrival-process kind. Trace replay is
// covered by its own determinism test (it needs a recorded trace).
func testProcesses(t *testing.T) []Arrivals {
	t.Helper()
	p, err := NewPoisson(11, 8000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMMPP(MMPPConfig{Seed: 11, Rate: 8000})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDiurnal(DiurnalConfig{Seed: 11, Rate: 8000})
	if err != nil {
		t.Fatal(err)
	}
	return []Arrivals{p, m, d}
}

// TestArrivalsDeterminismAcrossWidths: the schedule of every process is a
// pure function of (seed, index) — evaluating the gaps through the
// worker pool at widths 1, 4, and 16 (any goroutine, any order) yields
// the bit-identical schedule the sequential walk yields.
func TestArrivalsDeterminismAcrossWidths(t *testing.T) {
	const n = 4096
	for _, a := range testProcesses(t) {
		serial := make([]time.Duration, n)
		for i := range serial {
			serial[i] = a.Gap(uint64(i))
		}
		for _, width := range []int{1, 4, 16} {
			got := make([]time.Duration, n)
			parallel.ForWidth(width, n, func(i int) { got[i] = a.Gap(uint64(i)) })
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("%s: width %d gap %d = %v, serial %v", a.Name(), width, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestArrivalsSameSeedSameSchedule: two identically-configured processes
// agree gap for gap; a different seed diverges immediately.
func TestArrivalsSameSeedSameSchedule(t *testing.T) {
	build := func(seed int64) []Arrivals {
		p, _ := NewPoisson(seed, 8000)
		m, _ := NewMMPP(MMPPConfig{Seed: seed, Rate: 8000})
		d, _ := NewDiurnal(DiurnalConfig{Seed: seed, Rate: 8000})
		return []Arrivals{p, m, d}
	}
	a1, a2, b := build(5), build(5), build(6)
	for k := range a1 {
		diverged := false
		for i := uint64(0); i < 2048; i++ {
			if a1[k].Gap(i) != a2[k].Gap(i) {
				t.Fatalf("%s: same seed diverges at gap %d", a1[k].Name(), i)
			}
			if a1[k].Gap(i) != b[k].Gap(i) {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: different seeds produced the same 2048-gap schedule", a1[k].Name())
		}
	}
}

// TestPoissonGapFormula pins the Poisson schedule to its closed form
//
//	gap(i) = -1e9/rps * ln(noise.NewSource(seed).Float64(i))
//
// bit for bit — the formula the generator has had since it lived in
// internal/chaos, so every archived sweep and recorded trace keyed off a
// (seed, rps) pair replays unchanged.
func TestPoissonGapFormula(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		rps  float64
	}{
		{1717, 200_000}, // the overload-scenario burst in experiments.ChaosSweep
		{3, 10_000},
		{-7, 123.5},
	} {
		src := noise.NewSource(tc.seed)
		meanNS := 1e9 / tc.rps
		p, err := NewPoisson(tc.seed, tc.rps)
		if err != nil {
			t.Fatalf("NewPoisson(%d, %g): %v", tc.seed, tc.rps, err)
		}
		for i := uint64(0); i < 4096; i++ {
			want := time.Duration(-meanNS * math.Log(src.Float64(i)))
			if g := p.Gap(i); g != want {
				t.Fatalf("seed %d rps %g: gap %d = %v, want %v", tc.seed, tc.rps, i, g, want)
			}
		}
	}
}

// TestArrivalsMeanRate: over a long window the empirical rate of every
// process sits within tolerance of the nominal rate — the normalization
// math (MMPP regime solve, diurnal Jensen correction) is right.
func TestArrivalsMeanRate(t *testing.T) {
	const n = 60000
	for _, a := range testProcesses(t) {
		var sum time.Duration
		for i := uint64(0); i < n; i++ {
			g := a.Gap(i)
			// Sub-nanosecond draws truncate to 0 — simultaneous arrivals
			// are legal; negative gaps are not.
			if g < 0 {
				t.Fatalf("%s: gap %d = %v, want >= 0", a.Name(), i, g)
			}
			sum += g
		}
		got := n / sum.Seconds()
		want := a.Rate()
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s: empirical rate %.0f rps, want within 10%% of %.0f", a.Name(), got, want)
		}
	}
}

// TestMMPPBurstStructure: the regime chain actually modulates — both
// regimes occur, the burst fraction is in the configured ballpark, and
// burst-epoch gaps are shorter on average than base-epoch gaps.
func TestMMPPBurstStructure(t *testing.T) {
	m, err := NewMMPP(MMPPConfig{Seed: 21, Rate: 10000})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	var burstGaps, baseGaps time.Duration
	var burstN, baseN int
	for i := uint64(0); i < n; i++ {
		if m.Bursting(i) {
			burstGaps += m.Gap(i)
			burstN++
		} else {
			baseGaps += m.Gap(i)
			baseN++
		}
	}
	if burstN == 0 || baseN == 0 {
		t.Fatalf("degenerate chain: %d burst arrivals, %d base arrivals", burstN, baseN)
	}
	burstMean := float64(burstGaps) / float64(burstN)
	baseMean := float64(baseGaps) / float64(baseN)
	// Nominal ratio is the burst multiplier (8); the sampled ratio wobbles.
	if ratio := baseMean / burstMean; ratio < 4 {
		t.Errorf("burst gaps only %.1fx shorter than base gaps, want >= 4x for multiplier 8", ratio)
	}
	// Epochs are defined over arrival index, so the burst share of
	// *arrivals* tracks the stationary epoch fraction (0.2 by default);
	// the burst share of *time* is smaller, which is what makes the mean
	// rate come out right.
	frac := float64(burstN) / n
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("burst arrival fraction %.2f outside [0.1, 0.35] around stationary 0.2", frac)
	}
}

// TestDiurnalEnvelope: the instantaneous rate peaks a quarter-cycle in
// and troughs at three quarters, and the configured amplitude separates
// them.
func TestDiurnalEnvelope(t *testing.T) {
	d, err := NewDiurnal(DiurnalConfig{Seed: 31, Rate: 1000, Amplitude: 0.5, Cycle: 1000})
	if err != nil {
		t.Fatal(err)
	}
	peak, trough := d.RateAt(250), d.RateAt(750)
	if peak <= trough {
		t.Fatalf("peak rate %.0f <= trough rate %.0f", peak, trough)
	}
	if ratio := peak / trough; ratio < 2.5 {
		t.Errorf("peak/trough ratio %.2f, want ~3 for amplitude 0.5", ratio)
	}
}

// TestArrivalsConfigValidation: degenerate parameters are rejected at
// construction, mirroring the crossbar ADCBits=0 convention.
func TestArrivalsConfigValidation(t *testing.T) {
	if _, err := NewPoisson(1, 0); err == nil {
		t.Error("NewPoisson(rate 0) did not fail")
	}
	if _, err := NewPoisson(1, math.Inf(1)); err == nil {
		t.Error("NewPoisson(rate +Inf) did not fail")
	}
	bad := []MMPPConfig{
		{Seed: 1, Rate: 0},
		{Seed: 1, Rate: 100, Burst: 0.5},
		{Seed: 1, Rate: 100, BurstFrac: 1.5},
		{Seed: 1, Rate: 100, MeanBurstEpochs: 0.1},
		{Seed: 1, Rate: 100, Epoch: -1},
		{Seed: 1, Rate: 100, BurstFrac: 0.9, MeanBurstEpochs: 1}, // pEnter > 1
	}
	for i, cfg := range bad {
		if _, err := NewMMPP(cfg); err == nil {
			t.Errorf("NewMMPP case %d did not fail: %+v", i, cfg)
		}
	}
	badD := []DiurnalConfig{
		{Seed: 1, Rate: 0},
		{Seed: 1, Rate: 100, Amplitude: 1},
		{Seed: 1, Rate: 100, Amplitude: -0.1},
		{Seed: 1, Rate: 100, Cycle: 1},
	}
	for i, cfg := range badD {
		if _, err := NewDiurnal(cfg); err == nil {
			t.Errorf("NewDiurnal case %d did not fail: %+v", i, cfg)
		}
	}
}

// TestTimesPrefixSum: Times is the prefix sum of gaps.
func TestTimesPrefixSum(t *testing.T) {
	p, err := NewPoisson(41, 1000)
	if err != nil {
		t.Fatal(err)
	}
	times := Times(p, 100)
	var sum time.Duration
	for i, ts := range times {
		sum += p.Gap(uint64(i))
		if ts != sum {
			t.Fatalf("Times[%d] = %v, want prefix sum %v", i, ts, sum)
		}
	}
}
