// Package memristor models the novel memory devices at the heart of the
// paper's CIM vision (Section II.A, III.A): elements that "blur the boundary
// between memory and compute, effectively providing both in the same
// element".
//
// It provides three layers:
//
//   - Device: a single memristive cell with quantized conductance states,
//     read noise, asymmetric (slow, energetic) writes, and endurance-driven
//     aging (Section V.D serviceability).
//   - Stateful logic: the NOT/IMP (material implication) operations of
//     Borghetti et al. [20], from which all Boolean logic is built.
//   - Bitwise engine: the AND/OR/XOR in-array operations of Chen et al.
//     [18], used for bulk bitwise workloads.
//
// All randomness is injected via a caller-supplied *rand.Rand so simulations
// are reproducible.
package memristor

import (
	"fmt"
	"math"
	"math/rand"

	"cimrev/internal/energy"
)

// Logic pulse costs: stateful-logic pulses are much faster and cheaper than
// full analog programming writes because they only need to flip a binary
// state, not settle an analog level with verify cycles.
const (
	// LogicPulseLatencyPS is one conditional switching pulse.
	LogicPulseLatencyPS = 10_000 // 10 ns
	// LogicPulseEnergyPJ is the energy of one switching pulse.
	LogicPulseEnergyPJ = 0.1
)

// LogicPulseCost is the cost of a single stateful-logic pulse.
var LogicPulseCost = energy.Cost{LatencyPS: LogicPulseLatencyPS, EnergyPJ: LogicPulseEnergyPJ}

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

// Device is one memristive cell. Device is not safe for concurrent use; the
// crossbar layers serialize access.
type Device struct {
	params DeviceParams
	level  int   // current programmed level in [0, Levels)
	writes int64 // lifetime write count
}

// NewDevice returns a device initialized to its lowest conductance state.
func NewDevice(p DeviceParams) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Device{params: p}, nil
}

// Params returns the device technology parameters.
func (d *Device) Params() DeviceParams { return d.params }

// Writes returns the lifetime write count, the raw input to aging models.
func (d *Device) Writes() int64 { return d.writes }

// Level returns the currently programmed level.
func (d *Device) Level() int { return d.level }

// effectiveGMax returns the aged maximum conductance: past the endurance
// limit the high-conductance state drifts downward, shrinking the dynamic
// range — the graceful-aging phenomenon Section V.D wants detected.
func (d *Device) effectiveGMax() float64 {
	over := d.writes - d.params.Endurance
	if over <= 0 {
		return d.params.GMax
	}
	g := d.params.GMax * math.Pow(1-d.params.DriftPerWrite, float64(over))
	if g < d.params.GMin {
		return d.params.GMin
	}
	return g
}

// Health returns the remaining fraction of the device's dynamic range in
// (0, 1]; 1 means unaged.
func (d *Device) Health() float64 {
	full := d.params.GMax - d.params.GMin
	cur := d.effectiveGMax() - d.params.GMin
	if full <= 0 {
		return 0
	}
	return cur / full
}

// Program sets the device to the given level and returns the write cost.
// Programming is the slow, energetic direction of the paper's "asymmetric
// latency for writing memristor based devices" (Section VI).
func (d *Device) Program(level int) (energy.Cost, error) {
	if level < 0 || level >= d.params.Levels {
		return energy.Zero, fmt.Errorf("memristor: level %d outside [0,%d)", level, d.params.Levels)
	}
	d.level = level
	d.writes++
	return energy.Cost{
		LatencyPS: energy.CrossbarWriteLatencyPS,
		EnergyPJ:  energy.CrossbarWriteEnergyPJ,
	}, nil
}

// ProgramWeight programs the nearest level for a weight in [0, 1], returning
// the quantized weight actually stored and the write cost.
func (d *Device) ProgramWeight(w float64) (float64, energy.Cost, error) {
	if w < 0 || w > 1 || math.IsNaN(w) {
		return 0, energy.Zero, fmt.Errorf("memristor: weight %g outside [0,1]", w)
	}
	level := int(math.Round(w * float64(d.params.Levels-1)))
	cost, err := d.Program(level)
	if err != nil {
		return 0, energy.Zero, err
	}
	return d.StoredWeight(), cost, nil
}

// StoredWeight returns the ideal (noise-free) weight represented by the
// current level, accounting for aging compression of the top level.
func (d *Device) StoredWeight() float64 {
	ideal := float64(d.level) / float64(d.params.Levels-1)
	// Aging compresses the achievable range proportionally.
	return ideal * d.Health()
}

// Conductance returns the ideal conductance for the current level.
func (d *Device) Conductance() float64 {
	span := d.effectiveGMax() - d.params.GMin
	return d.params.GMin + span*float64(d.level)/float64(d.params.Levels-1)
}

// Read returns the observed conductance with multiplicative Gaussian read
// noise drawn from rng, plus the (tiny) read cost of sensing one cell.
func (d *Device) Read(rng *rand.Rand) (float64, energy.Cost) {
	g := d.Conductance()
	if d.params.ReadNoise > 0 && rng != nil {
		g *= 1 + rng.NormFloat64()*d.params.ReadNoise
		if g < 0 {
			g = 0
		}
	}
	return g, energy.Cost{LatencyPS: energy.CrossbarReadLatencyPS, EnergyPJ: energy.CrossbarCellReadEnergyPJ}
}
