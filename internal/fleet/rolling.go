// Rolling shadow reprogram: fleet-wide weight updates with zero downtime.
//
// A single engine already hides reprogramming behind its shadow pair
// (internal/serve): the standby programs at full write cost while the live
// engine serves, and an atomic swap makes the update visible. The fleet
// generalizes that to N boards with one extra constraint — only one
// engine's standby programs at a time. Serially rolling the update keeps
// the fleet's aggregate write bandwidth (and simulated power draw) bounded
// at one board's worth, and means at every instant N engines are serving
// on *some* consistent weight version; requests racing the roll may be
// answered by either version, exactly as with a single shadow swap.
//
// State machine per engine (see docs/CLUSTER.md for the fleet view):
//
//	idle ──▶ programming standby ──▶ [repair] ──▶ swap ──▶ idle
//	                │                    │
//	                └────────────────────┴──▶ pair trips (after its
//	                     retries), engine sheds, roll continues with the
//	                     next engine
//
// Promotion is health-gated: the shadow pair refuses to swap in a standby
// that stays unhealthy after repair. A failed engine is left tripped
// (visible on /healthz, skipped by the router) rather than failing the
// roll: the rest of the fleet still converges to the new weights.
package fleet

import (
	"fmt"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/nn"
)

// reprogrammer is the weight-update surface RollingReprogram drives on each
// engine: serve.ShadowPair, or a WrapBackend wrapper of the same shape.
type reprogrammer interface {
	Reprogram(net *nn.Network) (visible, hidden energy.Cost, err error)
}

// EngineReprogram is one engine's outcome within a rolling reprogram.
type EngineReprogram struct {
	// ID is the engine's fleet ID.
	ID int
	// Err is the engine's failure, nil on success. A failed engine's
	// shadow pair is left tripped.
	Err error
}

// RollingReport aggregates a rolling reprogram across the fleet.
type RollingReport struct {
	// Attempted / Succeeded / Failed count engines. Skipped engines
	// (drained mid-roll) are not attempted.
	Attempted, Succeeded, Failed int
	// Visible and Hidden fold the per-engine costs sequentially — the roll
	// is serial by design, so latencies sum.
	Visible, Hidden energy.Cost
	// PerEngine holds each attempted engine's outcome in roll order.
	PerEngine []EngineReprogram
}

// Err returns nil when every attempted engine succeeded, and otherwise an
// error naming the failed engines (wrapping the first failure).
func (r *RollingReport) Err() error {
	if r.Failed == 0 {
		return nil
	}
	var first error
	ids := make([]int, 0, r.Failed)
	for _, pe := range r.PerEngine {
		if pe.Err != nil {
			ids = append(ids, pe.ID)
			if first == nil {
				first = pe.Err
			}
		}
	}
	return fmt.Errorf("fleet: rolling reprogram failed on %d/%d engines %v: %w",
		r.Failed, r.Attempted, ids, first)
}

// RollingStatus is the observable state of the rolling scheduler, exposed
// on cimserve's /healthz.
type RollingStatus struct {
	// Active reports whether a roll is in progress.
	Active bool `json:"active"`
	// EngineID is the engine currently reprogramming (valid while Active).
	EngineID int `json:"engine_id"`
	// Done and Failed count engines completed so far; Total is the roll's
	// engine count.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Total  int `json:"total"`
}

// RollingStatus returns the current scheduler state.
func (f *Fleet) RollingStatus() RollingStatus {
	f.statusMu.Lock()
	defer f.statusMu.Unlock()
	return f.status
}

func (f *Fleet) setStatus(s RollingStatus) {
	f.statusMu.Lock()
	f.status = s
	f.statusMu.Unlock()
}

// RollingReprogram updates the whole fleet to net with zero downtime: each
// engine in turn programs its standby behind serving and swaps, one engine
// at a time, health-gated exactly as ShadowPair.Reprogram (retry + backoff,
// repair-before-swap) — or through the engine's WrapBackend
// wrapper when that can reprogram (Config.WrapBackend). The fleet serves
// throughout — the router keeps routing to every engine not currently
// tripped, and the engine being reprogrammed keeps serving its old weights
// until its swap.
//
// Engines that Close takes out of service mid-roll are skipped. A failed
// engine is left tripped and routed around; the roll continues. Rolls are
// serialized fleet-wide: a second RollingReprogram blocks until the first
// finishes. The per-engine outcomes, including the visible/hidden cost
// split, are in the returned report (check report.Err()).
func (f *Fleet) RollingReprogram(net *nn.Network) *RollingReport {
	f.rollMu.Lock()
	defer f.rollMu.Unlock()

	engines := f.members()

	f.met.rollings.Inc()
	rep := &RollingReport{Visible: energy.Zero, Hidden: energy.Zero}
	total := len(engines)
	for _, e := range engines {
		if e.Draining() {
			continue
		}
		f.setStatus(RollingStatus{
			Active: true, EngineID: e.id,
			Done: rep.Attempted, Failed: rep.Failed, Total: total,
		})
		// Chaos reprogram hang: the standby stalls before programming —
		// the roll (and the rollMu it holds) is pinned while the rest of
		// the fleet keeps serving, which is exactly the window the
		// crash-during-rolling-reprogram scenario stresses.
		if d := f.chaos.ReprogramDelay(); d > 0 {
			time.Sleep(d)
		}
		v, h, err := e.rep.Reprogram(net)
		pe := EngineReprogram{ID: e.id, Err: err}
		rep.PerEngine = append(rep.PerEngine, pe)
		rep.Attempted++
		rep.Visible = rep.Visible.Seq(v)
		rep.Hidden = rep.Hidden.Seq(h)
		if err != nil {
			rep.Failed++
		} else {
			rep.Succeeded++
		}
	}
	f.setStatus(RollingStatus{Done: rep.Attempted, Failed: rep.Failed, Total: total})
	return rep
}
