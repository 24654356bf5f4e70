// Engine health scanning and in-place repair.
//
// Section V.A of the paper claims CIM fabrics survive device failure
// "through redundancy of information and components"; this file is where
// the Dot Product Engine exposes that story as an API. HealthCheck reads
// the blast-radius record every crossbar kept from its latest
// program-and-verify pass (stuck cells found, retry pulses charged,
// columns remapped to spares, columns lost); Repair reprograms the
// unhealthy stages in place between batches, re-rolling transient write
// failures and re-running the self-test + spare remap — at full,
// ledger-charged write cost. The serving layer builds its circuit breaker
// on top (internal/serve, docs/FAULTS.md).
package dpe

import (
	"fmt"

	"cimrev/internal/crossbar"
	"cimrev/internal/energy"
	"cimrev/internal/faultinject"
	"cimrev/internal/obs"
)

// stageTile returns the physical tile for stage i, reusing the array the
// engine already owns at that position: reloading a network does not
// fabricate fresh crossbars, so wear counts and fault program epochs
// carry across Loads (a retried Load re-rolls transient write failures on
// a later epoch instead of replaying the first attempt's draws). A tile
// is allocated only when position i has never held one.
func (e *Engine) stageTile(i int) (*crossbar.Tile, error) {
	if i < len(e.stages) && e.stages[i].tile != nil {
		return e.stages[i].tile, nil
	}
	return e.newTile(i)
}

// newTile allocates the crossbar tile for stage i, installing the
// engine's device-fault model keyed to that stage: stage i derives fault
// child i of the engine's root, so which cells are stuck is a pure
// function of (fault seed, stage, block, position) — never of load order
// or pool width.
func (e *Engine) newTile(i int) (*crossbar.Tile, error) {
	tile, err := crossbar.NewTile(e.cfg.Crossbar)
	if err != nil {
		return nil, err
	}
	if e.cfg.Faults.Enabled() {
		if err := tile.SetFaults(e.cfg.Faults, e.faultSrc.Derive(uint64(i))); err != nil {
			return nil, err
		}
	}
	return tile, nil
}

// StageHealth is the fault record of one crossbar-bearing stage.
type StageHealth struct {
	// Report is the stage tile's aggregated fault report.
	Report faultinject.Report
}

// Health is an engine-wide fault scan: one entry per crossbar-bearing
// stage plus the fold of all of them.
type Health struct {
	Stages []StageHealth
	Total  faultinject.Report
}

// Healthy reports whether every logical column in every stage holds
// verified data. Drift cells do not unhealth an engine — they verify
// clean and degrade slowly — but they are visible in the report so
// callers can schedule preventive reprogramming.
func (h Health) Healthy() bool { return h.Total.Healthy() }

// String formats the engine-wide fold.
func (h Health) String() string {
	return fmt.Sprintf("stages=%d %s", len(h.Stages), h.Total.String())
}

// HealthCheck scans the engine's crossbars and returns their fault state.
// The underlying self-test ran (and was charged) during the last
// program-and-verify pass, so the scan itself is free and safe to run
// between batches; it must not race a concurrent Load/Repair.
// An engine without a loaded network, or without fault injection, reports
// healthy with no stages.
func (e *Engine) HealthCheck() Health {
	var h Health
	for i := range e.stages {
		s := &e.stages[i]
		if s.tile == nil {
			continue
		}
		sh := StageHealth{Report: s.tile.FaultReport()}
		h.Stages = append(h.Stages, sh)
		h.Total.Add(sh.Report)
	}
	return h
}

// Repair reprograms every stage whose fault report shows lost columns,
// re-running program-and-verify, the self-test scan, and spare remapping
// on the same physical arrays. Transient write failures re-roll on the
// new program epoch, so losses they caused usually clear; stuck cells are
// position-pinned, so a stage lost to spare exhaustion stays lost and the
// returned health says so — degradation is reported, never silent.
//
// The cost is real: every pulse of every retried cell lands in the
// returned ledger entry (stages repair in parallel, so latency is the max
// stage cost and energy sums — the same fold as Load). Repairing a
// healthy engine returns zero cost. Repair must not race inference.
func (e *Engine) Repair() (energy.Cost, Health, error) {
	if e.net == nil {
		return energy.Zero, Health{}, fmt.Errorf("dpe: Repair before Load")
	}
	bad := make([]int, 0, len(e.stages))
	for i := range e.stages {
		s := &e.stages[i]
		if s.tile != nil && !s.tile.FaultReport().Healthy() {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return energy.Zero, e.HealthCheck(), nil
	}
	total, err := e.program(obs.Ctx{}, e.stages, bad)
	if err != nil {
		return energy.Zero, Health{}, err
	}
	return total, e.HealthCheck(), nil
}
