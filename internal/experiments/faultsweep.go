package experiments

import (
	"fmt"
	"strings"

	"cimrev/internal/dpe"
	"cimrev/internal/faultinject"
	"cimrev/internal/parallel"
)

// FaultRow is one (stuck-cell rate, spare budget) grid point of the
// device-fault sweep.
type FaultRow struct {
	// StuckRate is the per-cell stuck probability, split evenly between
	// stuck-at-GMin and stuck-at-GMax.
	StuckRate float64
	// SpareCols is the per-crossbar spare-column budget.
	SpareCols int
	// Accuracy is classification accuracy through the faulty pipeline
	// after program-and-verify and spare remapping.
	Accuracy float64
	// SoftwareAccuracy is the float reference.
	SoftwareAccuracy float64
	// StuckCells / RemappedCols / LostCols / RetryPulses summarize the
	// engine-wide fault report after loading.
	StuckCells   int
	RemappedCols int
	LostCols     int
	RetryPulses  int64
	// ProgramEnergyPJ is the full program-and-verify energy, retries and
	// spare reprogramming included.
	ProgramEnergyPJ float64
	// InferLatencyPS / InferEnergyPJ are per-inference costs (unchanged
	// by faults: remapping is a programming-time affair).
	InferLatencyPS int64
	InferEnergyPJ  float64
}

// FaultResult is the fault-rate x spare-budget sweep: the Section V.A
// redundancy story quantified. It shows three regimes — spares absorb the
// stuck cells and accuracy holds; spares exhaust and accuracy degrades
// with lost columns; and the programming-energy price of verification
// climbing with the fault rate.
type FaultResult struct {
	Rows []FaultRow
}

// FaultSweep trains a small classifier once, then deploys it across the
// (stuck rate, spare budget) grid. Every grid point is independent and
// fans out across the worker pool; fault positions are a pure function of
// (seed, stage, block, cell), so the whole sweep is bit-identical at any
// pool width. A zero rate with zero spares reproduces the fault-free
// pipeline exactly.
func FaultSweep(rates []float64, spares []int) (*FaultResult, error) {
	if len(rates) == 0 || len(spares) == 0 {
		return nil, fmt.Errorf("experiments: empty fault sweep")
	}
	c, err := trainClassifier("fault-sweep", 606)
	if err != nil {
		return nil, err
	}

	grid := make([]FaultRow, 0, len(rates)*len(spares))
	for _, rate := range rates {
		for _, sp := range spares {
			grid = append(grid, FaultRow{StuckRate: rate, SpareCols: sp})
		}
	}
	rows, err := parallel.MapErr(len(grid), func(idx int) (FaultRow, error) {
		row := grid[idx]
		if row.StuckRate < 0 || row.StuckRate > 1 {
			return FaultRow{}, fmt.Errorf("experiments: stuck rate %g out of [0, 1]", row.StuckRate)
		}
		cfg := dpe.DefaultConfig()
		cfg.Crossbar.Rows, cfg.Crossbar.Cols = 32, 32
		cfg.Crossbar.SpareCols = row.SpareCols
		if row.StuckRate > 0 {
			cfg.Faults = faultinject.Model{
				StuckLowRate:  row.StuckRate / 2,
				StuckHighRate: row.StuckRate / 2,
				Seed:          707,
			}
		}
		eng, err := dpe.New(cfg)
		if err != nil {
			return FaultRow{}, fmt.Errorf("experiments: fault point (%g, %d): %w",
				row.StuckRate, row.SpareCols, err)
		}
		loadCost, err := eng.Load(c.net)
		if err != nil {
			return FaultRow{}, err
		}
		rep := eng.HealthCheck().Total
		row.StuckCells = rep.StuckCells
		row.RemappedCols = rep.RemappedCols
		row.LostCols = rep.LostCols
		row.RetryPulses = rep.RetryPulses
		row.ProgramEnergyPJ = loadCost.EnergyPJ

		outs, _, err := eng.InferBatch(c.testIn)
		if err != nil {
			return FaultRow{}, err
		}
		row.Accuracy = c.accuracy(outs)
		row.SoftwareAccuracy = c.swAcc
		if _, perInf, err := eng.Infer(c.testIn[0]); err == nil {
			row.InferLatencyPS = perInf.LatencyPS
			row.InferEnergyPJ = perInf.EnergyPJ
		} else {
			return FaultRow{}, err
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &FaultResult{Rows: rows}, nil
}

// Format renders the sweep table.
func (r *FaultResult) Format() string {
	var b strings.Builder
	b.WriteString("Sweep — stuck-cell rate x spare-column budget (program-and-verify + remap)\n")
	b.WriteString(fmt.Sprintf("%-8s %-7s %9s %9s %6s %7s %5s %8s %12s %12s\n",
		"rate", "spares", "accuracy", "software", "stuck", "remap", "lost", "retries", "program pJ", "infer pJ"))
	for _, row := range r.Rows {
		b.WriteString(fmt.Sprintf("%-8.4f %-7d %8.1f%% %8.1f%% %6d %7d %5d %8d %12.0f %12.1f\n",
			row.StuckRate, row.SpareCols, 100*row.Accuracy, 100*row.SoftwareAccuracy,
			row.StuckCells, row.RemappedCols, row.LostCols, row.RetryPulses,
			row.ProgramEnergyPJ, row.InferEnergyPJ))
	}
	return b.String()
}
