package experiments

import (
	"fmt"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/parallel"
	"cimrev/internal/suitability"
	"cimrev/internal/vonneumann"
	"cimrev/internal/workloads"
)

// ADCRow is one resolution point of the converter ablation.
type ADCRow struct {
	Bits int
	// Accuracy is classification accuracy of a trained network deployed
	// through the full bit-serial analog pipeline at this resolution.
	Accuracy float64
	// SoftwareAccuracy is the float reference.
	SoftwareAccuracy float64
	// EnergyPJ is the per-inference energy.
	EnergyPJ float64
}

// ADCResult is the converter-resolution ablation: the accuracy/energy
// trade that sizes the DPE's ADCs (ISAAC's key design decision).
type ADCResult struct {
	Rows []ADCRow
}

// ADCAblation trains a small classifier once and deploys it repeatedly at
// different ADC resolutions through the honest bit-serial pipeline.
func ADCAblation(bits []int) (*ADCResult, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("experiments: empty bits sweep")
	}
	c, err := trainClassifier("adc-ablation", 404)
	if err != nil {
		return nil, err
	}

	// Resolution points are independent — each deploys the shared trained
	// network (read-only) through its own engine — so they fan out across
	// the worker pool, rows collected in sweep order.
	rows, err := parallel.MapErr(len(bits), func(idx int) (ADCRow, error) {
		b := bits[idx]
		cfg := dpe.DefaultConfig()
		cfg.Crossbar.Functional = false
		cfg.Crossbar.ADCBits = b
		eng, err := dpe.New(cfg)
		if err != nil {
			return ADCRow{}, fmt.Errorf("experiments: adc %d: %w", b, err)
		}
		if _, err := eng.Load(c.net); err != nil {
			return ADCRow{}, err
		}
		outs := make([][]float64, len(c.testIn))
		var lastEnergy float64
		for i, in := range c.testIn {
			out, cost, err := eng.Infer(in)
			if err != nil {
				return ADCRow{}, err
			}
			outs[i], lastEnergy = out, cost.EnergyPJ
		}
		return ADCRow{
			Bits:             b,
			Accuracy:         c.accuracy(outs),
			SoftwareAccuracy: c.swAcc,
			EnergyPJ:         lastEnergy,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ADCResult{Rows: rows}, nil
}

// Format renders the ablation table.
func (r *ADCResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablation — ADC resolution vs accuracy and energy\n")
	b.WriteString(fmt.Sprintf("%-8s %12s %12s %14s\n", "ADC bits", "accuracy", "software", "pJ/inference"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-8d %11.1f%% %11.1f%% %14.0f\n",
			row.Bits, 100*row.Accuracy, 100*row.SoftwareAccuracy, row.EnergyPJ))
	}
	return b.String()
}

// NoiseRow is one read-noise point.
type NoiseRow struct {
	// Sigma is the relative analog read-noise standard deviation.
	Sigma float64
	// Accuracy is classification accuracy through the noisy pipeline.
	Accuracy float64
	// SoftwareAccuracy is the float reference.
	SoftwareAccuracy float64
}

// NoiseResult is the analog read-noise ablation.
type NoiseResult struct {
	Rows []NoiseRow
}

// NoiseAblation deploys a trained classifier at increasing analog read
// noise — the device-variability tolerance study that motivates using NN
// inference (noise-tolerant by construction) as CIM's flagship workload.
func NoiseAblation(sigmas []float64) (*NoiseResult, error) {
	if len(sigmas) == 0 {
		return nil, fmt.Errorf("experiments: empty sigma sweep")
	}
	c, err := trainClassifier("noise-ablation", 505)
	if err != nil {
		return nil, err
	}

	// Noise points fan out across the worker pool, and — because read noise
	// is counter-based, keyed by (engine seed, inference number) — so do the
	// inferences *within* each point: the whole test set goes through
	// InferBatch, whose noisy outputs are bit-identical to a serial Infer
	// loop at any pool width. Rows are collected in sweep order, so results
	// match serial execution exactly. Before the counter-based generator
	// this sweep was the worst case for the worker pool: every noisy point
	// forced itself sequential to preserve RNG draw order.
	rows, err := parallel.MapErr(len(sigmas), func(idx int) (NoiseRow, error) {
		sigma := sigmas[idx]
		if sigma < 0 {
			return NoiseRow{}, fmt.Errorf("experiments: negative noise %g", sigma)
		}
		cfg := dpe.DefaultConfig()
		cfg.Crossbar.Functional = false
		cfg.Crossbar.ReadNoise = sigma
		eng, err := dpe.New(cfg)
		if err != nil {
			return NoiseRow{}, err
		}
		if _, err := eng.Load(c.net); err != nil {
			return NoiseRow{}, err
		}
		outs, _, err := eng.InferBatch(c.testIn)
		if err != nil {
			return NoiseRow{}, err
		}
		return NoiseRow{
			Sigma:            sigma,
			Accuracy:         c.accuracy(outs),
			SoftwareAccuracy: c.swAcc,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &NoiseResult{Rows: rows}, nil
}

// Format renders the noise ablation.
func (r *NoiseResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablation — analog read noise vs accuracy\n")
	b.WriteString(fmt.Sprintf("%-10s %12s %12s\n", "sigma", "accuracy", "software"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-10.3f %11.1f%% %11.1f%%\n",
			row.Sigma, 100*row.Accuracy, 100*row.SoftwareAccuracy))
	}
	return b.String()
}

// ParallelismRow is one point of the application-parallelism sweep.
type ParallelismRow struct {
	Parallelism float64
	Speedup     float64
}

// ParallelismResult addresses the paper's first next-step question (Section
// VII): "Recognizing dominant applications of the future that are suitable
// for CIM will also depend on the application inherent parallelism."
type ParallelismResult struct {
	Rows []ParallelismRow
}

// ParallelismPoints are the parallelism levels `cimbench -exp parallelism`
// sweeps, as EXPERIMENTS.md shows them.
var ParallelismPoints = []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99}

// ParallelismSweep holds an in-array-dominated kernel fixed (a large
// training-scale tensor workload whose time is almost entirely crossbar
// MVMs) and varies only its exploitable parallelism, reporting CIM speedup
// over the Von Neumann baseline at each point. Serial dependences idle the
// massively parallel arrays, so the benefit collapses as parallelism falls
// — the Section VII point that suitability "will also depend on the
// application inherent parallelism".
func ParallelismSweep(points []float64) (*ParallelismResult, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("experiments: empty parallelism sweep")
	}
	base := workloads.Kernel{
		Flops:          1e12,
		DataBytes:      1e10,
		Rounds:         1e3,
		MVMFrac:        0.999,
		StationaryFrac: 0.95,
		Parallelism:    1,
	}
	vn, err := vonneumann.CPU().Run(vonneumann.Kernel{Flops: base.Flops, Bytes: base.DataBytes})
	if err != nil {
		return nil, err
	}
	rows, err := parallel.MapErr(len(points), func(i int) (ParallelismRow, error) {
		p := points[i]
		k := base
		k.Parallelism = p
		cim, err := suitability.CIMCost(k)
		if err != nil {
			return ParallelismRow{}, fmt.Errorf("experiments: parallelism %g: %w", p, err)
		}
		return ParallelismRow{
			Parallelism: p,
			Speedup:     float64(vn.LatencyPS) / float64(cim.LatencyPS),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ParallelismResult{Rows: rows}, nil
}

// Format renders the sweep.
func (r *ParallelismResult) Format() string {
	var b strings.Builder
	b.WriteString("Sweep — CIM speedup vs application parallelism (in-array-dominated kernel)\n")
	b.WriteString(fmt.Sprintf("%-14s %10s\n", "parallelism", "speedup"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-14.2f %9.2fx\n", row.Parallelism, row.Speedup))
	}
	return b.String()
}
