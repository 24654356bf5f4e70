package crossbar

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cimrev/internal/energy"
	"cimrev/internal/noise"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero rows", func(c *Config) { c.Rows = 0 }, false},
		{"negative cols", func(c *Config) { c.Cols = -1 }, false},
		{"cellbits zero", func(c *Config) { c.CellBits = 0 }, false},
		{"cellbits nine", func(c *Config) { c.CellBits = 9 }, false},
		{"weightbits not multiple", func(c *Config) { c.WeightBits = 7 }, false},
		{"weightbits too large", func(c *Config) { c.WeightBits = 18; c.CellBits = 2 }, false},
		{"inputbits zero", func(c *Config) { c.InputBits = 0 }, false},
		{"adcbits zero", func(c *Config) { c.ADCBits = 0 }, false},
		{"negative noise", func(c *Config) { c.ReadNoise = -1 }, false},
		// NaN < 0 is false: it used to pass, skip the noise-source check
		// (NaN > 0 is false too) and index a nil source slice in the kernel.
		{"NaN noise", func(c *Config) { c.ReadNoise = math.NaN() }, false},
		{"infinite noise", func(c *Config) { c.ReadNoise = math.Inf(1) }, false},
		{"noisy bit-serial", func(c *Config) { c.ReadNoise = 0.02 }, true},
		{"noisy functional", func(c *Config) { c.Functional = true; c.ReadNoise = 0.02 }, false},
		{"1-bit cells", func(c *Config) { c.CellBits = 1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestConfigSlices(t *testing.T) {
	cfg := DefaultConfig() // 8-bit weights, 2-bit cells
	if got := cfg.slices(); got != 4 {
		t.Errorf("slices = %d, want 4", got)
	}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 16, 16
	return cfg
}

func TestCrossbarMVMMatchesIdeal(t *testing.T) {
	cfg := smallConfig()
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	w := [][]float64{
		{0.5, -0.25, 0.1},
		{-0.3, 0.8, -0.6},
		{0.2, 0.4, 0.9},
		{-1.0, 0.0, 0.35},
	}
	input := []float64{0.7, -0.2, 0.5, 0.1}

	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	got, _, err := xb.MVM(input, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	want, err := xb.IdealMVM(w, input)
	if err != nil {
		t.Fatal(err)
	}
	// Error budget: weight/input quantization at 8 bits plus ADC
	// quantization on a 4-row array is small; allow 3% of the value scale.
	scale := xb.WeightScale() * 0.7 * 4 // |w|max * |x|max * rows
	for c := range want {
		if math.Abs(got[c]-want[c]) > 0.03*scale {
			t.Errorf("col %d: analog %g vs ideal %g (budget %g)", c, got[c], want[c], 0.03*scale)
		}
	}
}

func TestCrossbarMVMBeforeProgram(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := xb.MVM([]float64{1}, NoNoise); err == nil {
		t.Error("MVM before Program should fail")
	}
}

func TestCrossbarProgramErrors(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := xb.Program(make([][]float64, 17)); err == nil {
		t.Error("too many rows should fail")
	}
	if _, err := xb.Program([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := xb.Program([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN weight should fail")
	}
	if _, err := xb.Program([][]float64{make([]float64, 17)}); err == nil {
		t.Error("too many cols should fail")
	}
}

func TestCrossbarInputErrors(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program([][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := xb.MVM([]float64{1}, NoNoise); err == nil {
		t.Error("wrong input length should fail")
	}
	if _, _, err := xb.MVM([]float64{1, math.Inf(1)}, NoNoise); err == nil {
		t.Error("Inf input should fail")
	}
	if _, _, err := xb.MVM([]float64{math.NaN(), 1}, NoNoise); err == nil {
		t.Error("NaN input should fail")
	}
}

func TestCrossbarNoiseRequiresSource(t *testing.T) {
	cfg := smallConfig()
	cfg.ReadNoise = 0.01
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program([][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := xb.MVM([]float64{1}, NoNoise); err == nil {
		t.Error("noisy MVM without a noise source should fail")
	}
	if _, _, err := xb.MVM([]float64{1}, noise.NewSource(1)); err != nil {
		t.Errorf("noisy MVM with a source failed: %v", err)
	}
}

func TestCrossbarZeroMatrix(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.Program([][]float64{{0, 0}, {0, 0}}); err != nil {
		t.Fatal(err)
	}
	got, _, err := xb.MVM([]float64{1, 1}, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range got {
		if math.Abs(v) > 0.05 {
			t.Errorf("zero matrix output[%d] = %g, want ~0", c, v)
		}
	}
}

func TestCrossbarWriteAsymmetry(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := [][]float64{{1, 0}, {0, 1}}
	wcost, err := xb.Program(w)
	if err != nil {
		t.Fatal(err)
	}
	_, rcost, err := xb.MVM([]float64{1, 1}, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if wcost.LatencyPS < 100*rcost.LatencyPS {
		t.Errorf("program latency %d not >> MVM latency %d", wcost.LatencyPS, rcost.LatencyPS)
	}
}

func TestCrossbarWearAccumulates(t *testing.T) {
	xb, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := [][]float64{{1, 0}, {0, 1}}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	first := xb.Writes()
	if first != int64(2*2*xb.Config().slices()) {
		t.Errorf("writes after 1 program = %d, want %d", first, 2*2*xb.Config().slices())
	}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	if got := xb.Writes(); got != 2*first {
		t.Errorf("writes after 2 programs = %d, want %d", got, 2*first)
	}
}

func TestCrossbarADCBitsAblation(t *testing.T) {
	// Lower ADC resolution must not reduce error on average; at very low
	// bits the error must grow noticeably.
	mvmErr := func(adcBits int) float64 {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 64, 16
		cfg.ADCBits = adcBits
		xb, err := New(cfg)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(7))
		w := make([][]float64, 64)
		for r := range w {
			w[r] = make([]float64, 16)
			for c := range w[r] {
				w[r][c] = rng.Float64()*2 - 1
			}
		}
		input := make([]float64, 64)
		for i := range input {
			input[i] = rng.Float64()*2 - 1
		}
		if _, err := xb.Program(w); err != nil {
			panic(err)
		}
		got, _, err := xb.MVM(input, NoNoise)
		if err != nil {
			panic(err)
		}
		want, err := xb.IdealMVM(w, input)
		if err != nil {
			panic(err)
		}
		var sum float64
		for c := range want {
			sum += math.Abs(got[c] - want[c])
		}
		return sum / float64(len(want))
	}
	e10, e4 := mvmErr(10), mvmErr(4)
	if e4 <= e10 {
		t.Errorf("4-bit ADC error %g should exceed 10-bit error %g", e4, e10)
	}
}

func TestCrossbarEnergyScalesWithADCBits(t *testing.T) {
	cost := func(adcBits int) energy.Cost {
		cfg := smallConfig()
		cfg.ADCBits = adcBits
		xb, err := New(cfg)
		if err != nil {
			panic(err)
		}
		if _, err := xb.Program([][]float64{{1, 0}, {0, 1}}); err != nil {
			panic(err)
		}
		_, c, err := xb.MVM([]float64{1, 1}, NoNoise)
		if err != nil {
			panic(err)
		}
		return c
	}
	if cost(10).EnergyPJ <= cost(6).EnergyPJ {
		t.Error("higher ADC resolution should cost more energy")
	}
}

// Property: analog MVM tracks the ideal product within a quantization-driven
// bound for random small matrices.
func TestCrossbarAccuracyProperty(t *testing.T) {
	type testCase struct {
		w     [][]float64
		input []float64
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			rows := 2 + r.Intn(7)
			cols := 1 + r.Intn(8)
			w := make([][]float64, rows)
			for i := range w {
				w[i] = make([]float64, cols)
				for j := range w[i] {
					w[i][j] = r.Float64()*2 - 1
				}
			}
			input := make([]float64, rows)
			for i := range input {
				input[i] = r.Float64()*2 - 1
			}
			vals[0] = reflect.ValueOf(testCase{w: w, input: input})
		},
	}
	f := func(tc testCase) bool {
		xb, err := New(smallConfig())
		if err != nil {
			return false
		}
		if _, err := xb.Program(tc.w); err != nil {
			return false
		}
		got, _, err := xb.MVM(tc.input, NoNoise)
		if err != nil {
			return false
		}
		want, err := xb.IdealMVM(tc.w, tc.input)
		if err != nil {
			return false
		}
		// Budget: shift-encoding recovery error grows with row count and
		// value scales; 5% of (rows * wScale * xScale) is generous but
		// still catches structural mistakes.
		var xScale float64
		for _, v := range tc.input {
			if a := math.Abs(v); a > xScale {
				xScale = a
			}
		}
		budget := 0.05 * float64(len(tc.w)) * xb.WeightScale() * xScale
		if budget < 0.02 {
			budget = 0.02
		}
		for c := range want {
			if math.Abs(got[c]-want[c]) > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFunctionalModeMatchesIdealClosely(t *testing.T) {
	cfg := smallConfig()
	cfg.Functional = true
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	w := make([][]float64, 16)
	for r := range w {
		w[r] = make([]float64, 16)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	input := make([]float64, 16)
	for i := range input {
		input[i] = rng.Float64()*2 - 1
	}
	if _, err := xb.Program(w); err != nil {
		t.Fatal(err)
	}
	got, fcost, err := xb.MVM(input, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	want, err := xb.IdealMVM(w, input)
	if err != nil {
		t.Fatal(err)
	}
	// Only weight/input quantization remains: ~1% of scale.
	for c := range want {
		if math.Abs(got[c]-want[c]) > 0.16 {
			t.Errorf("col %d: functional %g vs ideal %g", c, got[c], want[c])
		}
	}

	// Cost model must be identical to bit-serial mode.
	cfg.Functional = false
	xb2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb2.Program(w); err != nil {
		t.Fatal(err)
	}
	_, bcost, err := xb2.MVM(input, NoNoise)
	if err != nil {
		t.Fatal(err)
	}
	if fcost != bcost {
		t.Errorf("functional cost %v != bit-serial cost %v", fcost, bcost)
	}
}

func TestFunctionalModeAtLeastAsAccurate(t *testing.T) {
	// Functional mode skips ADC quantization, so its error must not exceed
	// the bit-serial error on the same data.
	rng := rand.New(rand.NewSource(21))
	w := make([][]float64, 64)
	for r := range w {
		w[r] = make([]float64, 8)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	input := make([]float64, 64)
	for i := range input {
		input[i] = rng.Float64()*2 - 1
	}
	meanErr := func(functional bool) float64 {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = 64, 8
		cfg.ADCBits = 6
		cfg.Functional = functional
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xb.Program(w); err != nil {
			t.Fatal(err)
		}
		got, _, err := xb.MVM(input, NoNoise)
		if err != nil {
			t.Fatal(err)
		}
		want, err := xb.IdealMVM(w, input)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for c := range want {
			sum += math.Abs(got[c] - want[c])
		}
		return sum / float64(len(want))
	}
	if ef, eb := meanErr(true), meanErr(false); ef > eb {
		t.Errorf("functional error %g exceeds bit-serial error %g", ef, eb)
	}
}
