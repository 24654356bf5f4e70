// Package service implements Section V.D of the paper (serviceability):
// "This motivates the need for graceful aging and self-healing at multiple
// levels of CIM components. Understanding how individual devices age can
// enable switching them out of active configurations preventing failures
// from even happening."
//
// A Monitor watches unit wear (crossbar write counts against the device
// endurance model) and predicts remaining lifetime, so a worn unit can be
// failed over to a spare (fault.Guard) *before* it dies.
package service

import (
	"fmt"

	"cimrev/internal/cim"
	"cimrev/internal/memristor"
	"cimrev/internal/packet"
)

// HealthReport describes one unit's aging state.
type HealthReport struct {
	Addr packet.Address
	// Writes is the unit's lifetime cell-programming count.
	Writes int64
	// WearFraction is Writes relative to per-cell endurance x cell count
	// (1.0 means the average cell has hit its endurance limit).
	WearFraction float64
	// RemainingWrites estimates programming operations left before the
	// wear threshold.
	RemainingWrites int64
	// AtRisk marks units past the monitor's threshold.
	AtRisk bool
}

// Monitor tracks fabric unit aging.
type Monitor struct {
	fabric *cim.Fabric
	params memristor.DeviceParams
	// Threshold is the wear fraction past which a unit is at risk.
	Threshold float64
}

// NewMonitor wraps a fabric with the given device technology and risk
// threshold (fraction of endurance, in (0, 1]).
func NewMonitor(fabric *cim.Fabric, params memristor.DeviceParams, threshold float64) (*Monitor, error) {
	if fabric == nil {
		return nil, fmt.Errorf("service: nil fabric")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("service: threshold %g outside (0,1]", threshold)
	}
	return &Monitor{fabric: fabric, params: params, Threshold: threshold}, nil
}

// Inspect reports one unit's health. Wear is averaged over the unit's
// programmed cells; non-crossbar units report zero wear.
func (m *Monitor) Inspect(addr packet.Address) (HealthReport, error) {
	u, err := m.fabric.Unit(addr)
	if err != nil {
		return HealthReport{}, err
	}
	rep := HealthReport{Addr: addr, Writes: u.Writes()}
	rows, cols := u.CrossbarShape()
	cells := int64(rows) * int64(cols)
	if cells == 0 {
		return rep, nil
	}
	budget := float64(cells) * float64(m.params.Endurance)
	rep.WearFraction = float64(rep.Writes) / budget
	remaining := int64(budget*m.Threshold) - rep.Writes
	if remaining < 0 {
		remaining = 0
	}
	rep.RemainingWrites = remaining
	rep.AtRisk = rep.WearFraction >= m.Threshold
	return rep, nil
}
