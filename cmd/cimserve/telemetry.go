// Live telemetry endpoint for cimserve: -listen starts an HTTP server
// exposing the serving fleet's state while the load runs. There is one
// shape at every fleet size — a single engine is a fleet of one.
//
//   - /metrics    — Prometheus text format: the fleet.* registry unlabeled
//     (metrics.Snapshot.WriteProm) followed by every engine's private
//     registry — serve.* request/batch counters, latency and batch-size
//     summaries, breaker state, dispatch.* — rendered with an
//     {engine="<id>"} label (metrics.Snapshot.WritePromLabeled), so
//     per-engine series share names without colliding.
//   - /healthz    — JSON liveness: one entry per engine carrying its live
//     fault scan (via ShadowPair.Health, which holds the engine's read gate
//     so the scan cannot race a reprogram) plus breaker, drain and swap
//     state, then the rolling-reprogram status and the resilience state.
//     The fleet is "ok" (200) while at least one engine is routable —
//     degraded members are listed, not fatal, because the router fails
//     over around them — and "unhealthy" (503) when none is: a fleet of
//     one with a tripped breaker.
//   - /debug/pprof — the standard Go profiler endpoints, wired manually
//     onto the private mux (the default mux is never used, so cimserve
//     cannot leak handlers into importers).
//
// Until the batch run has built its fleet both data endpoints answer 503
// ("initializing"). The handlers read only snapshots and atomics; a scrape
// can never stall the dispatcher or the closed-loop clients. See
// docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"cimrev/internal/fleet"
)

// telemetry is the shared state the HTTP handlers read: the live fleet,
// installed by runFleet once it exists. Until then the endpoints report
// "initializing".
type telemetry struct {
	fl atomic.Pointer[fleet.Fleet]
}

// setFleet installs the live fleet (called once by runFleet).
func (t *telemetry) setFleet(f *fleet.Fleet) { t.fl.Store(f) }

// handleMetrics renders the fleet registry followed by each engine's
// registry under an {engine="<id>"} label.
func (t *telemetry) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	f := t.fl.Load()
	if f == nil {
		http.Error(w, "# registry not initialized yet\n", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.Registry().Snapshot().WriteProm(w)
	for _, e := range f.Engines() {
		labels := map[string]string{"engine": strconv.Itoa(e.ID())}
		_ = e.Registry().Snapshot().WritePromLabeled(w, labels)
	}
}

// engineHealth is one fleet member's entry in the /healthz body.
type engineHealth struct {
	ID       int   `json:"id"`
	Tripped  bool  `json:"breaker_tripped"`
	Draining bool  `json:"draining"`
	Swaps    int64 `json:"swaps"`
	// The live engine's fault scan (dpe.Health): stages covered, columns
	// lost past the spare budget, stuck cells, and columns remapped onto
	// spares.
	Stages   int   `json:"stages_scanned"`
	LostCols int   `json:"lost_cols"`
	StuckBad int   `json:"stuck_cells"`
	Remapped int   `json:"remapped_cols"`
	Wear     int64 `json:"wear_writes"`
	Routed   int64 `json:"routed"`
	// Limit is the engine's current AIMD concurrency limit and InFlight
	// its admitted load (docs/RESILIENCE.md); Limit is 0 when overload
	// control is disabled.
	Limit    int64 `json:"limit"`
	InFlight int64 `json:"in_flight"`
}

// fleetHealthzBody is the /healthz JSON shape.
type fleetHealthzBody struct {
	Status  string              `json:"status"` // "ok", "unhealthy", or "initializing"
	Engines []engineHealth      `json:"engines"`
	Rolling fleet.RollingStatus `json:"rolling"`
	// Resilience state (docs/RESILIENCE.md): the active chaos scenario
	// ("none" when nothing is injected), whether hedging is enabled, and
	// whether the brownout is currently shedding low-priority traffic.
	Chaos     string `json:"chaos_scenario"`
	Hedging   bool   `json:"hedging"`
	Brownout  bool   `json:"brownout_active"`
	CheckedAt string `json:"checked_at"`
}

// handleHealthz scans every member's live engine through its shadow pair's
// read gate and reports 200 while at least one engine is routable (breaker
// closed, not draining), 503 otherwise — including before the fleet exists.
func (t *telemetry) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := fleetHealthzBody{Status: "initializing", CheckedAt: time.Now().UTC().Format(time.RFC3339Nano)}
	code := http.StatusServiceUnavailable
	if f := t.fl.Load(); f != nil {
		body.Rolling = f.RollingStatus()
		body.Chaos = f.Chaos().Plan().Name
		body.Hedging = f.Hedging()
		body.Brownout = f.BrownoutActive()
		body.Status = "unhealthy"
		for _, e := range f.Engines() {
			h := e.Health()
			eh := engineHealth{
				ID: e.ID(), Tripped: e.Tripped(), Draining: e.Draining(),
				Swaps: e.Pair().Swaps(), Stages: len(h.Stages),
				LostCols: h.Total.LostCols, StuckBad: h.Total.StuckCells, Remapped: h.Total.RemappedCols,
				Wear: e.Wear(), Routed: e.Routed(),
				Limit: e.Limit(), InFlight: e.InFlight(),
			}
			if !eh.Tripped && !eh.Draining {
				body.Status, code = "ok", http.StatusOK
			}
			body.Engines = append(body.Engines, eh)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// newTelemetryMux wires the three endpoint families onto a private mux.
func newTelemetryMux(t *telemetry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/healthz", t.handleHealthz)
	// Manual pprof wiring: we never touch http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startTelemetry binds addr and serves the telemetry mux in the
// background, returning the bound address (useful with ":0") and a
// shutdown func.
func startTelemetry(addr string, t *telemetry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("-listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: newTelemetryMux(t)}
	go func() { _ = srv.Serve(ln) }()
	stop := func() { _ = srv.Close() }
	return ln.Addr().String(), stop, nil
}
