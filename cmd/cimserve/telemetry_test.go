package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/dpe"
	"cimrev/internal/fleet"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
)

// getBody fetches url and returns status code and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryEndpoints stands up the -listen HTTP server on a loopback
// port and walks it through its lifecycle with a fleet of one:
// initializing (503s before the batch run installs its fleet), serving
// (/metrics in Prometheus text, /healthz 200 with the engine's fault-scan
// entry, pprof wired), and unhealthy (the only engine's breaker tripped ->
// 503).
func TestTelemetryEndpoints(t *testing.T) {
	tel := &telemetry{}
	addr, stop, err := startTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	// Before initialization both data endpoints must 503, not 404 or 200.
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("/metrics before init = %d, want 503", code)
	}
	code, body := getBody(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/healthz before init = %d, want 503", code)
	}
	var hb fleetHealthzBody
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatalf("/healthz body not JSON: %v (%q)", err, body)
	}
	if hb.Status != "initializing" || len(hb.Engines) != 0 {
		t.Errorf("pre-init body %+v, want status initializing and no engines", hb)
	}

	// Install a live one-engine fleet whose breaker probe cannot pass, so
	// the first reprogram trips it.
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	net, err := nn.NewMLP("telemetry-test", []int{32, 24, 10}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 32)
	f, _, err := fleet.New(cfg, net, fleet.WithServeOptions(
		serve.WithBatch(4, time.Millisecond), serve.WithQueueBound(64),
		serve.WithProbe(0.9, [][]float64{in}, []int{-1})))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tel.setFleet(f)

	// Serve a little traffic so the registries have content to scrape.
	for i := 0; i < 8; i++ {
		if _, _, err := f.SubmitSeq(context.Background(), uint64(i), in); err != nil {
			t.Fatal(err)
		}
	}

	code, body = getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200:\n%s", code, body)
	}
	for _, want := range []string{
		"fleet_requests 8",
		"# TYPE serve_requests counter",
		`serve_requests{engine="0"} 8`,
		"# TYPE serve_latency_ns summary",
		`serve_latency_ns{engine="0",quantile="0.99"}`,
		`serve_latency_ns_count{engine="0"} 8`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = getBody(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200: %s", code, body)
	}
	hb = fleetHealthzBody{}
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || len(hb.Engines) != 1 {
		t.Fatalf("healthy fleet of one reported %+v", hb)
	}
	if eh := hb.Engines[0]; eh.Tripped || eh.LostCols != 0 || eh.Routed != 8 {
		t.Errorf("healthy engine reported %+v", eh)
	}
	if hb.Engines[0].Stages == 0 {
		t.Error("health scan covered no stages")
	}
	for _, key := range []string{`"stages_scanned"`, `"stuck_cells"`, `"remapped_cols"`, `"lost_cols"`} {
		if !strings.Contains(body, key) {
			t.Errorf("/healthz engine entry missing %s: %s", key, body)
		}
	}

	// pprof is wired onto the private mux.
	if code, _ := getBody(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", code)
	}

	// A tripped breaker on the only engine flips /healthz to 503 without
	// touching /metrics.
	if rep := f.RollingReprogram(net); rep.Failed != 1 {
		t.Fatalf("impossible probe labels passed: %+v", rep)
	}
	code, body = getBody(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with tripped breaker = %d, want 503: %s", code, body)
	}
	hb = fleetHealthzBody{}
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "unhealthy" || len(hb.Engines) != 1 || !hb.Engines[0].Tripped {
		t.Errorf("tripped breaker reported %+v", hb)
	}
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusOK {
		t.Error("/metrics must keep serving while unhealthy")
	}
}

// TestRunWithListen drives the full closed loop at -engines 1 with the
// telemetry endpoint up and scrapes it mid-run and after: runFleet installs
// its fleet, a mid-run scrape shows the engine's live serve.* series, and
// the fleet registry still shows the run's traffic once the engines have
// drained.
func TestRunWithListen(t *testing.T) {
	tel := &telemetry{}
	addr, stop, err := startTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	o := options{
		clients:  4,
		requests: 4096, // long enough that a scrape lands mid-run
		batch:    4,
		maxdelay: time.Millisecond,
		queue:    64,
		mode:     "batch",
		layers:   []int{32, 24, 10},
		seed:     7,
		engines:  1,
		policy:   "round-robin",
		dispatch: "cim",
		chaos:    "none",
	}
	// run() would start its own listener from o.listen; drive runFleet
	// directly against the already-started one to keep the port in hand.
	cfg := dpe.DefaultConfig()
	cfg.Seed = o.seed
	rng := rand.New(rand.NewSource(o.seed))
	net, err := nn.NewMLP("listen-test", o.layers, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, o.layers[0])
	}
	type result struct {
		st  runStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := runFleet(cfg, net, net, inputs, o, loadgen{}, tel)
		done <- result{st, err}
	}()
	var res result
	sawEngine := false
	for running := true; running; {
		select {
		case res = <-done:
			running = false
		default:
			if code, body := getBody(t, "http://"+addr+"/metrics"); code == http.StatusOK &&
				strings.Contains(body, `serve_requests{engine="0"}`) {
				sawEngine = true
			}
		}
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.st.requests != o.requests {
		t.Fatalf("served %d, want %d", res.st.requests, o.requests)
	}
	if !sawEngine {
		t.Error("no mid-run scrape showed the engine's serve_requests series")
	}
	code, body := getBody(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics after run = %d", code)
	}
	if !strings.Contains(body, fmt.Sprintf("fleet_requests %d", o.requests)) {
		t.Errorf("/metrics does not show the run's %d requests:\n%s", o.requests, body)
	}
}

// TestTelemetryFleet: with several engines /metrics carries the fleet registry
// plus every engine's registry under an {engine="<id>"} label, and
// /healthz aggregates per-engine health with the rolling status.
func TestTelemetryFleet(t *testing.T) {
	tel := &telemetry{}
	addr, stop, err := startTelemetry("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	net, err := nn.NewMLP("tel-fleet", []int{16, 8}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpe.DefaultConfig()
	cfg.Crossbar.Rows, cfg.Crossbar.Cols = 64, 64
	// Hedging, overload control, and a chaos plan are all armed so the
	// /healthz body's resilience fields carry live state, not zero values.
	plan, err := chaos.ScenarioPlan("straggler", 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := fleet.New(cfg, net, fleet.WithEngines(2),
		fleet.WithHedge(fleet.HedgeConfig{}),
		fleet.WithOverloadControl(fleet.OverloadConfig{}),
		fleet.WithChaos(chaos.New(plan)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tel.setFleet(f)

	in := make([]float64, 16)
	if _, _, err := f.SubmitSeq(context.Background(), 0, in); err != nil {
		t.Fatal(err)
	}

	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics fleet = %d, want 200", code)
	}
	for _, want := range []string{
		"fleet_requests 1",
		`serve_requests{engine="0"}`,
		`serve_requests{engine="1"}`,
		`serve_latency_ns{engine="0",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet /metrics missing %q:\n%s", want, body)
		}
	}

	code, body = getBody(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz fleet = %d, want 200", code)
	}
	var fb fleetHealthzBody
	if err := json.Unmarshal([]byte(body), &fb); err != nil {
		t.Fatalf("fleet /healthz body not JSON: %v (%q)", err, body)
	}
	if fb.Status != "ok" || len(fb.Engines) != 2 || fb.Rolling.Active {
		t.Errorf("fleet /healthz body = %+v", fb)
	}
	// Resilience state: the active chaos scenario by name, hedging on,
	// brownout off (no overload yet), and every engine's live AIMD limit.
	if fb.Chaos != "straggler" || !fb.Hedging || fb.Brownout {
		t.Errorf("fleet /healthz resilience state = chaos %q hedging %v brownout %v",
			fb.Chaos, fb.Hedging, fb.Brownout)
	}
	for _, eh := range fb.Engines {
		if eh.Limit <= 0 {
			t.Errorf("engine %d /healthz limit = %d, want > 0 with overload control on", eh.ID, eh.Limit)
		}
	}

	// Drain every engine: the fleet has no routable members and /healthz
	// must flip to 503.
	for _, e := range f.Engines() {
		if err := f.Leave(e.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz with no routable engines = %d, want 503", code)
	}
}
