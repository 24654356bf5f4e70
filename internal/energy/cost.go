// Package energy provides the latency and energy cost accounting used by
// every simulator in this repository.
//
// All simulations are deterministic and virtual-time based: nothing in this
// module reads wall clocks. Latency is tracked in picoseconds and energy in
// picojoules so that device-level events (sub-nanosecond, sub-picojoule) and
// system-level events (milliseconds, joules) fit in the same arithmetic
// without losing precision.
package energy

import (
	"fmt"
	"math"
)

// Cost is the fundamental accounting record: how long an operation took on
// the critical path and how much energy it consumed. Costs compose two ways:
// serially (latencies add) and in parallel (latencies max, energies always
// add).
type Cost struct {
	// LatencyPS is critical-path latency in picoseconds.
	LatencyPS int64
	// EnergyPJ is consumed energy in picojoules.
	EnergyPJ float64
}

// Zero is the identity cost for both serial and parallel composition.
var Zero = Cost{}

// Seq returns the serial composition of c followed by others: latencies and
// energies both sum.
func (c Cost) Seq(others ...Cost) Cost {
	out := c
	for _, o := range others {
		out.LatencyPS += o.LatencyPS
		out.EnergyPJ += o.EnergyPJ
	}
	return out
}

// Par returns the parallel composition of c with others: the latency is the
// maximum over all branches (they overlap in time) while energies sum.
func (c Cost) Par(others ...Cost) Cost {
	out := c
	for _, o := range others {
		if o.LatencyPS > out.LatencyPS {
			out.LatencyPS = o.LatencyPS
		}
		out.EnergyPJ += o.EnergyPJ
	}
	return out
}

// Scale returns the cost of repeating the operation n times serially.
func (c Cost) Scale(n int64) Cost {
	return Cost{LatencyPS: c.LatencyPS * n, EnergyPJ: c.EnergyPJ * float64(n)}
}

// Digital is the price of one digital micro-unit pass over n elements: one
// eDRAM buffer access of latency, and a shift-add plus an eDRAM byte of
// energy per element. It is the one digital price: the DPE's activation and
// pooling stages and the fabric's compute units both charge it.
func Digital(n int) Cost {
	return Cost{
		LatencyPS: EDRAMAccessLatencyPS,
		EnergyPJ:  float64(n) * (ShiftAddEnergyPJ + EDRAMAccessEnergyPJPerByte),
	}
}

// HiddenWrite is the visible price of a weight write c that a standby
// array absorbs (the write-asymmetry hiding of Section VI): the write
// retires off the critical path, so its latency shows only as one eDRAM
// buffer swap, and its energy is still paid in full. It is the one hiding
// rule: serve.ShadowPair's swap and the scaling experiment both charge it.
func HiddenWrite(c Cost) Cost {
	return Cost{LatencyPS: EDRAMAccessLatencyPS, EnergyPJ: c.EnergyPJ}
}

// Latency returns the latency in seconds.
func (c Cost) Latency() float64 { return float64(c.LatencyPS) * 1e-12 }

// Energy returns the energy in joules.
func (c Cost) Energy() float64 { return c.EnergyPJ * 1e-12 }

// Power returns the average power in watts over the cost's latency. A
// zero-latency cost has undefined power; Power reports 0 for it.
func (c Cost) Power() float64 {
	if c.LatencyPS == 0 {
		return 0
	}
	return c.Energy() / c.Latency()
}

// String renders the cost with human-scale units.
func (c Cost) String() string {
	return fmt.Sprintf("%s / %s", FormatLatency(c.LatencyPS), FormatEnergy(c.EnergyPJ))
}

// FormatLatency renders picoseconds using the most natural SI prefix.
func FormatLatency(ps int64) string {
	v := float64(ps)
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.3gs", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.3gms", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gus", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gns", v/1e3)
	default:
		return fmt.Sprintf("%gps", v)
	}
}

// FormatEnergy renders picojoules using the most natural SI prefix.
func FormatEnergy(pj float64) string {
	switch {
	case pj >= 1e12:
		return fmt.Sprintf("%.3gJ", pj/1e12)
	case pj >= 1e9:
		return fmt.Sprintf("%.3gmJ", pj/1e9)
	case pj >= 1e6:
		return fmt.Sprintf("%.3guJ", pj/1e6)
	case pj >= 1e3:
		return fmt.Sprintf("%.3gnJ", pj/1e3)
	default:
		return fmt.Sprintf("%.3gpJ", pj)
	}
}

// PicosecondsFromSeconds converts seconds into picoseconds, saturating at
// MaxInt64 rather than overflowing for absurdly long durations.
func PicosecondsFromSeconds(s float64) int64 {
	ps := s * 1e12
	if ps >= math.MaxInt64 {
		return math.MaxInt64
	}
	if ps <= 0 {
		return 0
	}
	return int64(ps)
}
