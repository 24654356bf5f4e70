// Package memristor models the novel memory devices at the heart of the
// paper's CIM vision (Section II.A, III.A): elements that "blur the boundary
// between memory and compute, effectively providing both in the same
// element".
//
// It provides two pieces:
//
//   - DeviceParams: a memristive cell technology — conductance range,
//     levels, read noise and the write endurance the serviceability
//     monitor wears units against (Section V.D).
//   - Bitwise engine: the in-array AND of Chen et al. [18], used for bulk
//     bitwise workloads.
package memristor

import (
	"fmt"
	"math"
)

// DeviceParams describes a memristive cell technology.
type DeviceParams struct {
	// GMin and GMax bound the programmable conductance range in siemens.
	GMin, GMax float64
	// Levels is the number of distinct programmable conductance levels
	// (2^bits-per-cell). Must be >= 2.
	Levels int
	// ReadNoise is the relative standard deviation of conductance observed
	// on a read (device-to-device and cycle-to-cycle variation folded
	// together).
	ReadNoise float64
	// Endurance is the write count after which the device begins to age.
	Endurance int64
	// DriftPerWrite is the fractional GMax degradation per write beyond
	// Endurance.
	DriftPerWrite float64
}

// DefaultParams returns TaOx-class device parameters: 2-bit cells with a
// 1000x on/off ratio and ~1e9 write endurance.
func DefaultParams() DeviceParams {
	return DeviceParams{
		GMin:          1e-6, // 1 uS  (1 Mohm off state)
		GMax:          1e-3, // 1 mS  (1 kohm on state)
		Levels:        4,
		ReadNoise:     0.02,
		Endurance:     1_000_000_000,
		DriftPerWrite: 1e-12,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p DeviceParams) Validate() error {
	switch {
	case p.GMin <= 0 || p.GMax <= 0:
		return fmt.Errorf("memristor: conductances must be positive (GMin=%g GMax=%g)", p.GMin, p.GMax)
	case p.GMax <= p.GMin:
		return fmt.Errorf("memristor: GMax (%g) must exceed GMin (%g)", p.GMax, p.GMin)
	case p.Levels < 2:
		return fmt.Errorf("memristor: need at least 2 levels, got %d", p.Levels)
	case !(p.ReadNoise >= 0) || math.IsInf(p.ReadNoise, 1): // NaN fails it too
		return fmt.Errorf("memristor: ReadNoise must be finite and non-negative, got %g", p.ReadNoise)
	}
	return nil
}
