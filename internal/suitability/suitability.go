// Package suitability turns the paper's qualitative Table 2 into measured
// quantities: it prices each application-class kernel on the Von Neumann
// roofline (vonneumann.CPU) and on a DPE board built from the engine's own
// array read, computes latency and energy ratios, and thresholds them back
// into the paper's low/medium/high CIM-benefit scale.
package suitability

import (
	"fmt"

	"cimrev/internal/cim"
	"cimrev/internal/dpe"
	"cimrev/internal/energy"
	"cimrev/internal/vonneumann"
	"cimrev/internal/workloads"
)

// Rating is the CIM-benefit verdict.
type Rating int

const (
	// RatingLow means CIM offers under 1.5x.
	RatingLow Rating = iota + 1
	// RatingMedium means 1.5-5x.
	RatingMedium
	// RatingHigh means 5x or better.
	RatingHigh
)

// String names the rating as Table 2 prints it.
func (r Rating) String() string {
	switch r {
	case RatingLow:
		return "low"
	case RatingMedium:
		return "medium"
	case RatingHigh:
		return "high"
	default:
		return fmt.Sprintf("rating(%d)", int(r))
	}
}

// Thresholds for mapping the speedup to a rating, exported so runtime
// consumers (the hybrid dispatcher's crossover sweep) report the same
// low/medium/high boundaries the offline Table 2 scoring uses.
const (
	// MediumThreshold is the speedup above which CIM benefit is "medium".
	MediumThreshold = 1.5
	// HighThreshold is the speedup above which CIM benefit is "high".
	HighThreshold = 5.0
)

// RatingFor maps a VN/CIM latency speedup onto the Table 2 scale.
func RatingFor(speedup float64) Rating {
	switch {
	case speedup >= HighThreshold:
		return RatingHigh
	case speedup >= MediumThreshold:
		return RatingMedium
	default:
		return RatingLow
	}
}

// Result is one scored class.
type Result struct {
	Class    workloads.Class
	VN       energy.Cost
	CIM      energy.Cost
	Speedup  float64 // VN latency / CIM latency
	EnergyX  float64 // VN energy / CIM energy
	Measured Rating
	Paper    workloads.Level
}

// Agrees reports whether the measured rating matches the paper's cell.
func (r Result) Agrees() bool {
	return int(r.Measured) == int(r.Paper)
}

// CIMCost prices the kernel on a DPE board: the mappable fraction runs as
// reads of the default array (one op per MAC), priced by the array's own
// read cost (crossbar.Config.ReadCost) with dpe.BoardCrossbars of them in
// flight at the kernel's parallelism; the remainder runs on digital
// micro-units; streaming covers only non-stationary data across the
// default fabric mesh's bisection; and each dataflow round serializes on
// the mesh.
func CIMCost(k workloads.Kernel) (energy.Cost, error) {
	if err := k.Validate(); err != nil {
		return energy.Zero, err
	}
	xb := dpe.DefaultConfig().Crossbar
	read := xb.ReadCost(xb.Rows, xb.Cols)
	mesh := cim.DefaultConfig()
	bisection := float64(min(mesh.MeshW, mesh.MeshH)) * mesh.LinkBandwidth

	mvmOps := k.Flops * k.MVMFrac
	ctrlOps := k.Flops - mvmOps
	streamBytes := k.DataBytes * (1 - k.StationaryFrac)
	reads := mvmOps / float64(xb.Rows*xb.Cols)

	mvmS := reads * float64(read.LatencyPS) * 1e-12 / (dpe.BoardCrossbars * k.Parallelism)
	ctrlS := ctrlOps / energy.CIMControlFlops
	streamS := streamBytes / bisection
	roundS := k.Rounds * energy.CIMRoundLatencyS
	runS := mvmS + ctrlS + streamS + roundS

	latency := energy.PicosecondsFromSeconds(runS)
	dynamic := reads*read.EnergyPJ + ctrlOps*energy.CIMControlOpEnergyPJ +
		streamBytes*energy.LinkEnergyPJPerByte
	static := energy.CIMStaticPowerW * runS * 1e12
	return energy.Cost{LatencyPS: latency, EnergyPJ: dynamic + static}, nil
}

// Score runs both models on one class at the given scale.
func Score(c workloads.Class, scale float64) (Result, error) {
	k, err := c.Kernel(scale)
	if err != nil {
		return Result{}, err
	}
	cimCost, err := CIMCost(k)
	if err != nil {
		return Result{}, err
	}
	vn, err := vonneumann.CPU().Run(vonneumann.Kernel{Flops: k.Flops, Bytes: k.DataBytes})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Class: c,
		VN:    vn,
		CIM:   cimCost,
		Paper: c.Traits().PaperCIM,
	}
	if cimCost.LatencyPS > 0 {
		res.Speedup = float64(vn.LatencyPS) / float64(cimCost.LatencyPS)
	}
	if cimCost.EnergyPJ > 0 {
		res.EnergyX = vn.EnergyPJ / cimCost.EnergyPJ
	}
	res.Measured = RatingFor(res.Speedup)
	return res, nil
}

// Table2 scores every class at the reference scale, in table order.
func Table2() ([]Result, error) {
	classes := workloads.Classes()
	out := make([]Result, 0, len(classes))
	for _, c := range classes {
		r, err := Score(c, 1.0)
		if err != nil {
			return nil, fmt.Errorf("suitability: %v: %w", c, err)
		}
		out = append(out, r)
	}
	return out, nil
}
