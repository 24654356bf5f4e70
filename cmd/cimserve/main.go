// Command cimserve is the load generator for the inference serving
// stack (internal/fleet over internal/serve). It stands up the paper's
// Section VI DPE as a fleet of -engines boards, each behind its own
// micro-batching frontend, drives it with a workloadgen load
// (closed-loop clients by default, open-loop arrival processes on
// request), and reports throughput and latency quantiles as one `go test
// -bench`-style result line per mode on stdout, with a human summary on
// stderr. The archived serving numbers are the repository benchmark's
// serve_* workloads (benchmark/README.md), not a cimserve run.
//
// Two serving modes are measured:
//
//   - serial: every request pays serial per-request Infer latency — the
//     pre-pipeline baseline where concurrent callers queue on one engine.
//   - batch: requests flow through the fleet router and an engine's
//     work-conserving micro-batcher into the batched kernel, which overlaps batch
//     items across the engine's stage pipeline (simulated time) and across
//     the worker pool (wall time).
//
// Load generation is the internal/workloadgen driver (docs/CAPACITY.md):
// -arrivals selects the arrival process — closed (the default: -clients
// workers, each issuing its next request when the previous returns),
// poisson, mmpp (bursty), diurnal, or trace (replay a recorded
// schedule from -tracefile). The open-loop processes fire requests on
// their deterministic schedule whether or not the backend keeps up —
// -rate sets the offered req/s — and the bench line gains offered_rps,
// achieved_rps, late_p50_ns/late_p99_ns (generator schedule slip), and
// peak_inflight (the queue-growth witness). -mix default draws each
// request's class (batch-1 vs batch-8 neural inference, analytics
// probes) from the seed-keyed default mix; -record writes the generated
// schedule and classes to a JSON trace replayable with -arrivals trace.
// Open-loop runs require -mode batch: the serial baseline is a
// closed-loop artifact, and an open-loop schedule against a fully
// serialized engine just measures unbounded pile-up.
//
// The batch mode is always a fleet run (internal/fleet, docs/CLUSTER.md):
// -engines N independent engines — each its own shadow pair, breaker,
// queue, and metrics namespace — behind the -policy request router
// (round-robin, least-loaded, wear-aware). The default, -engines 1, is a
// fleet of one: the same stack, the same telemetry shape, and bench
// lines named batch_* (N > 1 names them fleet_*_e<N>_<policy> and adds the
// engines metric). Every element of a request carries its own noise key
// (workloadgen.Request.ElementKey, under any -mix), so per-request outputs
// are bit-identical at every fleet size under every policy. -reprogram performs *rolling* reprograms: one standby
// programs at a time, health-gated promotion, zero fleet downtime. The
// -listen endpoint exposes every engine's registry on one /metrics page
// with {engine="<id>"} labels and aggregates fleet health on /healthz.
//
// Each mode reports wall-clock ns/op plus custom metrics: req_per_s (wall
// throughput), sim_req_per_s (simulated throughput from the energy
// algebra's virtual clock), p50_ns/p95_ns/p99_ns (wall latency quantiles
// from the lock-free serving histogram), and pj_per_req (energy). The
// batch line adds sim_speedup and wall_speedup versus the serial baseline,
// and -reprogram > 0 exercises shadow-engine weight swaps mid-run to show
// they cost the serving path nothing.
//
// -dispatch selects the serving backend policy (internal/hybrid,
// docs/HYBRID.md): cim (default) serves every flush from the crossbar
// path, vn serves from the executing Von Neumann twin (bit-identical on
// deterministic configs), and auto routes each flush to whichever of the
// two charges less for it (both prices are exact) — unless the deployment
// has no twin (-stuck > 0: each board's
// defects are its own), in which case everything is pinned to CIM and
// counted as dispatch_pinned_noisy. Non-default modes add dispatch_cim /
// dispatch_vn / dispatch_pinned_noisy to the bench line, and the
// dispatch.* counters appear on /metrics.
//
// Errors in batch mode are broken out by cause so the result line
// distinguishes capacity problems from health problems (docs/FAULTS.md):
// shed counts backpressure rejections (ErrOverloaded; closed-loop clients
// retry them, open-loop drives count them and keep the schedule), unhealthy
// counts requests refused by the tripped circuit breaker (ErrUnhealthy),
// and reprogram_failed counts weight swaps that failed after the breaker's
// retry budget. -stuck and -spares inject device faults to exercise these
// paths; at the defaults (no faults) all three stay zero.
//
// The resilience layer (docs/RESILIENCE.md) is driven by four flags:
// -deadline sets a per-request budget — requests that expire anywhere in
// the pipeline (pending list included) shed with the typed
// ErrDeadlineExceeded and are counted as deadline_exceeded, never
// retried. -hedge (needs -engines >= 2) re-issues requests that outlive
// the tracked p95 on a second engine — keyed noise makes the two attempts
// bit-identical, so first-response-wins is safe; hedged / hedge_won land
// on the bench line. -overload enables the per-engine AIMD concurrency
// limiter and the priority brownout. -chaos <scenario> injects a
// deterministic fault plan (none, straggler, crash, overload —
// internal/chaos) into every engine; /healthz reports the active scenario
// and each engine's current concurrency limit. The micro-batcher never
// holds a request back for company, so -batch is its only knob
// (docs/SERVING.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cimrev/internal/chaos"
	"cimrev/internal/dpe"
	"cimrev/internal/faultinject"
	"cimrev/internal/fleet"
	"cimrev/internal/hybrid"
	"cimrev/internal/metrics"
	"cimrev/internal/nn"
	"cimrev/internal/serve"
	"cimrev/internal/vonneumann"
	"cimrev/internal/workloadgen"
)

// options is the validated CLI configuration.
type options struct {
	clients   int
	requests  int
	batch     int
	deadline  time.Duration // per-request deadline (0 = none)
	queue     int
	mode      string
	layers    []int
	seed      int64
	reprogram int
	stuck     float64
	spares    int
	listen    string
	engines   int
	policy    string
	dispatch  string
	hedge     bool
	overload  bool
	chaos     string

	// Load generation (internal/workloadgen): the arrival process, its
	// offered rate, the request-class mix, and trace record/replay.
	arrivals  string
	rate      float64
	mix       string
	record    string
	tracefile string
}

// openLoop reports whether the options select an open-loop drive. The
// zero value means closed, so option structs built in code (tests,
// embedders) keep their historical behavior without naming the flag.
func (o options) openLoop() bool { return o.arrivals != "" && o.arrivals != "closed" }

// generated reports whether the arrival process is a schedule generator
// (recordable to a trace, parameterized by -rate).
func (o options) generated() bool {
	switch o.arrivals {
	case "poisson", "mmpp", "diurnal":
		return true
	}
	return false
}

// parseLayers parses a comma-separated MLP shape like "256,128,10".
func parseLayers(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("-layers needs at least 2 comma-separated sizes, got %q", s)
	}
	sizes := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-layers entry %d (%q) must be a positive integer", i, p)
		}
		sizes[i] = v
	}
	return sizes, nil
}

// validate fails fast on degenerate parameters, mirroring the
// serve.Config / crossbar ADCBits=0 convention.
func (o options) validate() error {
	switch {
	case o.clients < 1:
		return fmt.Errorf("-clients must be >= 1, got %d", o.clients)
	case o.requests < 1:
		return fmt.Errorf("-requests must be >= 1, got %d", o.requests)
	case o.batch < 1:
		return fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	case o.deadline < 0:
		return fmt.Errorf("-deadline must be >= 0 (0 disables), got %v", o.deadline)
	case o.queue < 1:
		return fmt.Errorf("-queue must be >= 1, got %d", o.queue)
	case !o.openLoop() && o.queue < o.clients:
		return fmt.Errorf("-queue (%d) must be >= -clients (%d): a closed loop never has more than one outstanding request per client, so a smaller queue just sheds load spuriously", o.queue, o.clients)
	case o.mode != "both" && o.mode != "serial" && o.mode != "batch":
		return fmt.Errorf("-mode must be one of both|serial|batch, got %q", o.mode)
	case o.reprogram < 0:
		return fmt.Errorf("-reprogram must be >= 0, got %d", o.reprogram)
	case o.stuck < 0 || o.stuck >= 1:
		return fmt.Errorf("-stuck must be in [0, 1), got %g", o.stuck)
	case o.spares < 0:
		return fmt.Errorf("-spares must be >= 0, got %d", o.spares)
	case o.spares > 0 && o.stuck == 0:
		return fmt.Errorf("-spares only applies with -stuck > 0: without injected faults no column is remapped")
	case o.engines < 1:
		return fmt.Errorf("-engines must be >= 1, got %d", o.engines)
	case o.hedge && o.engines < 2:
		return fmt.Errorf("-hedge needs a second engine to hedge onto, use -engines >= 2")
	}
	switch o.arrivals {
	case "", "closed", "poisson", "mmpp", "diurnal", "trace":
	default:
		return fmt.Errorf("-arrivals must be one of closed|poisson|mmpp|diurnal|trace, got %q", o.arrivals)
	}
	switch {
	case o.generated() && o.rate <= 0:
		return fmt.Errorf("-arrivals %s needs a positive -rate (offered req/s), got %g", o.arrivals, o.rate)
	case o.arrivals == "trace" && o.tracefile == "":
		return fmt.Errorf("-arrivals trace needs -tracefile")
	case o.tracefile != "" && o.arrivals != "trace":
		return fmt.Errorf("-tracefile only applies to -arrivals trace")
	case o.record != "" && !o.generated():
		return fmt.Errorf("-record needs a schedule generator (-arrivals poisson|mmpp|diurnal), got %q", o.arrivals)
	case o.openLoop() && o.mode != "batch":
		return fmt.Errorf("-arrivals %s is open-loop and requires -mode batch (the serial baseline is a closed-loop artifact)", o.arrivals)
	case o.mix != "" && o.mix != "none" && o.mix != "default":
		return fmt.Errorf("-mix must be none or default, got %q", o.mix)
	}
	if _, err := fleet.ParsePolicy(o.policy); err != nil {
		return fmt.Errorf("-policy: %w", err)
	}
	if _, err := hybrid.ParseMode(o.dispatch); err != nil {
		return fmt.Errorf("-dispatch: %w", err)
	}
	if _, err := chaos.ScenarioPlan(o.chaos, o.seed, 1); err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}
	return nil
}

// loadgen is the built workload: the arrival process (nil = closed loop)
// and the class picker (nil = single class).
type loadgen struct {
	arrivals workloadgen.Arrivals
	mix      workloadgen.Picker
}

// buildLoad constructs the arrival process and class picker the options
// select. Trace replays resolve their recorded class names against the
// -mix classes; with -mix none a classed trace replays its schedule only.
func buildLoad(o options) (loadgen, error) {
	var g loadgen
	if o.mix == "default" {
		g.mix = workloadgen.DefaultMix(o.seed)
	}
	var err error
	switch o.arrivals {
	case "closed":
	case "poisson":
		g.arrivals, err = workloadgen.NewPoisson(o.seed, o.rate)
	case "mmpp":
		g.arrivals, err = workloadgen.NewMMPP(o.seed, o.rate)
	case "diurnal":
		g.arrivals, err = workloadgen.NewDiurnal(o.seed, o.rate)
	case "trace":
		f, ferr := os.Open(o.tracefile)
		if ferr != nil {
			return g, fmt.Errorf("-tracefile: %w", ferr)
		}
		tr, terr := workloadgen.ReadTrace(f)
		f.Close()
		if terr != nil {
			return g, fmt.Errorf("-tracefile %s: %w", o.tracefile, terr)
		}
		rep, rerr := tr.Replay()
		if rerr != nil {
			return g, rerr
		}
		g.arrivals = rep
		if rep.ClassNames() && o.mix == "default" {
			g.mix, err = rep.Picker(workloadgen.DefaultMix(o.seed))
		}
	}
	return g, err
}

// runStats is what one serving mode measured.
type runStats struct {
	requests int
	wall     time.Duration
	simPS    int64
	energyPJ float64
	lat      metrics.HistogramSnapshot
	swaps    int64
	avgBatch float64

	// Error breakdown by cause (batch mode): backpressure sheds, breaker
	// sheds, and weight swaps that exhausted the breaker's retry budget.
	shed            int64
	unhealthy       int64
	reprogramFailed int64
	retries         int64

	// Hybrid dispatch breakdown: requests routed to the crossbar, to the
	// Von Neumann twin, and pinned to the crossbar for noise reasons.
	dispCIM    int64
	dispVN     int64
	dispPinned int64

	// Resilience breakdown (docs/RESILIENCE.md): requests shed by their
	// per-request deadline, hedges issued/won, limiter refusals folded
	// into failovers, and brownout sheds of low-priority traffic.
	deadlineExceeded int64
	hedged           int64
	hedgeWon         int64
	limiterRefused   int64
	brownoutShed     int64

	// Open-loop drive measurements (zero in closed-loop runs): the
	// schedule's nominal rate, served throughput, generator schedule
	// slip, and the in-flight high-water mark.
	offeredRPS   float64
	achievedRPS  float64
	lateP50NS    float64
	lateP99NS    float64
	peakInFlight int64
}

func (s runStats) wallReqPerSec() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.requests) / s.wall.Seconds()
}

func (s runStats) simReqPerSec() float64 {
	if s.simPS <= 0 {
		return 0
	}
	return float64(s.requests) / (float64(s.simPS) * 1e-12)
}

// fromReport folds the drive's report into the stats.
func (s *runStats) fromReport(rep workloadgen.Report) {
	s.requests = rep.Requests
	s.wall = rep.Wall
	s.shed = rep.Sheds
	s.offeredRPS = rep.OfferedRPS
	s.achievedRPS = rep.AchievedRPS
	s.lateP50NS = rep.Lateness.Quantile(0.5)
	s.lateP99NS = rep.Lateness.Quantile(0.99)
	s.peakInFlight = rep.PeakInFlight
}

func main() {
	var o options
	var layersFlag string
	flag.IntVar(&o.clients, "clients", 64, "concurrent closed-loop clients (ignored by open-loop -arrivals)")
	flag.IntVar(&o.requests, "requests", 2048, "total requests per mode")
	flag.IntVar(&o.batch, "batch", 64, "micro-batcher max batch size")
	flag.DurationVar(&o.deadline, "deadline", 0, "per-request deadline; expired requests shed with ErrDeadlineExceeded (0 disables)")
	flag.IntVar(&o.queue, "queue", 4096, "pending-list bound (backpressure high-water mark)")
	flag.StringVar(&o.mode, "mode", "both", "serving modes to run: both|serial|batch")
	flag.StringVar(&layersFlag, "layers", "256,256,256,256,256,128,10", "8-bit MLP layer sizes")
	flag.Int64Var(&o.seed, "seed", 1, "workload and engine seed")
	flag.IntVar(&o.reprogram, "reprogram", 0, "rolling shadow-engine reprograms to perform mid-run (batch mode)")
	flag.Float64Var(&o.stuck, "stuck", 0, "stuck-cell rate injected into every crossbar (split evenly GMin/GMax)")
	flag.IntVar(&o.spares, "spares", 0, "spare columns per crossbar for fault remapping (needs -stuck)")
	flag.StringVar(&o.listen, "listen", "", "address for the live telemetry endpoint (/metrics, /healthz, /debug/pprof); empty disables")
	flag.IntVar(&o.engines, "engines", 1, "fleet size: engines behind the request router")
	flag.StringVar(&o.policy, "policy", "round-robin", "fleet routing policy: round-robin, least-loaded, wear-aware")
	flag.StringVar(&o.dispatch, "dispatch", "cim", "backend dispatch policy: cim (crossbar only), vn (Von Neumann twin only), auto (cost-model routing)")
	flag.BoolVar(&o.hedge, "hedge", false, "hedge requests that outlive the tracked p95 onto a second engine (first response wins, bit-identical; needs -engines >= 2)")
	flag.BoolVar(&o.overload, "overload", false, "enable the per-engine AIMD concurrency limiter and priority brownout")
	flag.StringVar(&o.chaos, "chaos", "none", "deterministic chaos scenario to inject into every engine: none, straggler, crash, overload")
	flag.StringVar(&o.arrivals, "arrivals", "closed", "arrival process: closed (clients loop), poisson, mmpp, diurnal, trace (open-loop, -mode batch)")
	flag.Float64Var(&o.rate, "rate", 0, "offered req/s for -arrivals poisson|mmpp|diurnal")
	flag.StringVar(&o.mix, "mix", "none", "request-class mix: none (single class) or default (seed-keyed batch-1/batch-8/analytics)")
	flag.StringVar(&o.record, "record", "", "write the generated arrival schedule and classes to this JSON trace file")
	flag.StringVar(&o.tracefile, "tracefile", "", "trace file to replay with -arrivals trace")
	flag.Parse()

	layers, err := parseLayers(layersFlag)
	if err != nil {
		fatal(err)
	}
	o.layers = layers
	if err := o.validate(); err != nil {
		fatal(err)
	}
	if err := run(os.Stdout, o); err != nil {
		fatal(err)
	}
}

// errorLine is what a fatal error prints: the program's name, once — the
// errors this package builds carry no prefix of their own.
func errorLine(err error) string { return "cimserve: " + err.Error() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// run executes the selected modes and writes bench-format lines to w.
func run(w io.Writer, o options) error {
	gen, err := buildLoad(o)
	if err != nil {
		return err
	}
	if o.record != "" {
		tr, err := workloadgen.Record(gen.arrivals, gen.mix, o.requests)
		if err != nil {
			return err
		}
		f, err := os.Create(o.record)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cimserve: recorded %d arrivals (%s, %.0f req/s) to %s\n",
			o.requests, o.arrivals, o.rate, o.record)
	}

	// The 8-bit MLP workload: default crossbar config is 8-bit weights,
	// 8-bit inputs, 8-bit ADCs; functional mode keeps the cost model
	// intact while skipping per-cycle ADC emulation.
	cfg := dpe.DefaultConfig()
	cfg.Seed = o.seed
	if o.stuck > 0 {
		cfg.Faults = faultinject.Model{
			StuckLowRate:  o.stuck / 2,
			StuckHighRate: o.stuck / 2,
			Seed:          o.seed,
		}
		cfg.Crossbar.SpareCols = o.spares
	}

	rng := rand.New(rand.NewSource(o.seed))
	net, err := nn.NewMLP("serve-mlp8", o.layers, rng)
	if err != nil {
		return err
	}
	netB, err := nn.NewMLP("serve-mlp8-v2", o.layers, rng)
	if err != nil {
		return err
	}
	inputs := make([][]float64, 256)
	for i := range inputs {
		in := make([]float64, o.layers[0])
		for j := range in {
			in[j] = rng.Float64()*2 - 1
		}
		inputs[i] = in
	}

	fmt.Fprintf(w, "goos: %s\n", runtime.GOOS)
	fmt.Fprintf(w, "goarch: %s\n", runtime.GOARCH)
	fmt.Fprintf(w, "pkg: cimrev/cmd/cimserve\n")

	// The telemetry endpoint (when -listen is set) outlives both modes;
	// runFleet installs the live fleet into it.
	tel := &telemetry{}
	if o.listen != "" {
		addr, stop, err := startTelemetry(o.listen, tel)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "cimserve: telemetry on http://%s (/metrics /healthz /debug/pprof)\n", addr)
	}

	var serial, batch runStats
	if o.mode == "both" || o.mode == "serial" {
		serial, err = runSerial(cfg, net, inputs, o)
		if err != nil {
			return err
		}
		emit(w, fmt.Sprintf("BenchmarkServe/serial_c%d", o.clients), serial, nil, nil)
	}
	if o.mode == "both" || o.mode == "batch" {
		batch, err = runFleet(cfg, net, netB, inputs, o, gen, tel)
		if err != nil {
			return err
		}
		extra := map[string]float64{
			"avg_batch":         batch.avgBatch,
			"swaps":             float64(batch.swaps),
			"shed":              float64(batch.shed),
			"unhealthy":         float64(batch.unhealthy),
			"reprogram_failed":  float64(batch.reprogramFailed),
			"reprogram_retries": float64(batch.retries),
		}
		order := []string{"avg_batch", "swaps", "shed", "unhealthy", "reprogram_failed", "reprogram_retries"}
		if o.openLoop() {
			extra["offered_rps"] = batch.offeredRPS
			extra["achieved_rps"] = batch.achievedRPS
			extra["late_p50_ns"] = batch.lateP50NS
			extra["late_p99_ns"] = batch.lateP99NS
			extra["peak_inflight"] = float64(batch.peakInFlight)
			order = append(order, "offered_rps", "achieved_rps", "late_p50_ns", "late_p99_ns", "peak_inflight")
		}
		if o.deadline > 0 {
			extra["deadline_exceeded"] = float64(batch.deadlineExceeded)
			order = append(order, "deadline_exceeded")
		}
		if o.hedge {
			extra["hedged"] = float64(batch.hedged)
			extra["hedge_won"] = float64(batch.hedgeWon)
			order = append(order, "hedged", "hedge_won")
		}
		if o.overload {
			extra["limiter_refused"] = float64(batch.limiterRefused)
			extra["brownout_shed"] = float64(batch.brownoutShed)
			order = append(order, "limiter_refused", "brownout_shed")
		}
		if o.dispatch != "cim" {
			extra["dispatch_cim"] = float64(batch.dispCIM)
			extra["dispatch_vn"] = float64(batch.dispVN)
			extra["dispatch_pinned_noisy"] = float64(batch.dispPinned)
			order = append(order, "dispatch_cim", "dispatch_vn", "dispatch_pinned_noisy")
		}
		if o.mode == "both" {
			if batch.simPS > 0 {
				extra["sim_speedup"] = float64(serial.simPS) / float64(batch.simPS)
				order = append(order, "sim_speedup")
			}
			if batch.wall > 0 {
				extra["wall_speedup"] = serial.wall.Seconds() / batch.wall.Seconds()
				order = append(order, "wall_speedup")
			}
		}
		// Closed-loop names keep their historical shape; open-loop names
		// carry the arrival process instead of the (ignored) client count.
		// A fleet of one keeps the batch_* name.
		load := fmt.Sprintf("c%d", o.clients)
		if o.openLoop() {
			load = o.arrivals
		}
		name := fmt.Sprintf("BenchmarkServe/batch_%s_b%d", load, o.batch)
		if o.engines > 1 {
			extra["engines"] = float64(o.engines)
			order = append(order, "engines")
			name = fmt.Sprintf("BenchmarkServe/fleet_%s_b%d_e%d_%s", load, o.batch, o.engines,
				strings.ReplaceAll(o.policy, "-", "_"))
		}
		emit(w, name, batch, extra, order)
	}
	summary(os.Stderr, o, serial, batch)
	return nil
}

// driveConfig is the workloadgen configuration the options select.
func driveConfig(o options, gen loadgen) workloadgen.DriveConfig {
	return workloadgen.DriveConfig{
		Arrivals: gen.arrivals,
		Mix:      gen.mix,
		Requests: o.requests,
		Clients:  o.clients,
	}
}

// runSerial measures the baseline: o.clients closed-loop clients contend
// for one engine whose Infer calls are fully serialized — every request
// pays serial per-request latency, in wall-clock and in simulated time.
func runSerial(cfg dpe.Config, net *nn.Network, inputs [][]float64, o options) (runStats, error) {
	eng, err := dpe.New(cfg)
	if err != nil {
		return runStats{}, err
	}
	if _, err := eng.Load(net); err != nil {
		return runStats{}, err
	}

	var mu sync.Mutex // serializes Infer: the no-pipeline baseline
	var simPS atomic.Int64
	var energyPJ metrics.Gauge
	rep, err := workloadgen.Drive(driveConfig(o, loadgen{}), func(req workloadgen.Request) (workloadgen.Outcome, error) {
		mu.Lock()
		_, cost, err := eng.Infer(inputs[req.Seq%uint64(len(inputs))])
		mu.Unlock()
		if err != nil {
			return workloadgen.Fatal, err
		}
		simPS.Add(cost.LatencyPS)
		energyPJ.Add(cost.EnergyPJ)
		return workloadgen.OK, nil
	})
	if err != nil {
		return runStats{}, err
	}
	st := runStats{
		simPS:    simPS.Load(),
		energyPJ: energyPJ.Value(),
		lat:      rep.Latency,
	}
	st.fromReport(rep)
	return st, nil
}

// classify maps a serving error onto a drive outcome, folding the
// cause-specific counters as it goes. Backpressure is Shed (closed-loop
// drives retry it, open-loop drives count it and keep the schedule);
// deadline and breaker refusals are Drops (never retried); anything else
// is fatal.
func classify(err error, deadlined, unhealthy *atomic.Int64) (workloadgen.Outcome, error) {
	switch {
	case err == nil:
		return workloadgen.OK, nil
	case errors.Is(err, serve.ErrDeadlineExceeded):
		deadlined.Add(1)
		return workloadgen.Drop, nil
	case errors.Is(err, serve.ErrOverloaded):
		return workloadgen.Shed, nil
	case errors.Is(err, serve.ErrUnhealthy):
		unhealthy.Add(1)
		return workloadgen.Drop, nil
	default:
		return workloadgen.Fatal, err
	}
}

// runFleet measures the serving stack: the workloadgen drive feeds
// o.engines independent serving pipelines (one is a fleet too) behind the
// o.policy router. Every element is stamped with its ElementKey as its
// noise key, so outputs are bit-identical at any fleet size regardless of
// placement. -reprogram fires rolling reprograms — each one
// updates every engine, one standby at a time, with the fleet serving
// throughout. Request failures are classified by cause rather than
// collapsed into one count: backpressure (ErrOverloaded) retries in
// closed-loop mode, breaker sheds (ErrUnhealthy) and blown deadlines
// abandon the request, anything else aborts the run.
func runFleet(cfg dpe.Config, net, netB *nn.Network, inputs [][]float64, o options, gen loadgen, tel *telemetry) (runStats, error) {
	policy, err := fleet.ParsePolicy(o.policy)
	if err != nil {
		return runStats{}, err
	}
	dmode, err := hybrid.ParseMode(o.dispatch)
	if err != nil {
		return runStats{}, err
	}
	fopts := []fleet.Option{
		fleet.WithEngines(o.engines),
		fleet.WithPolicy(policy),
		fleet.WithServeOptions(
			serve.WithBatch(o.batch, 0),
			serve.WithQueueBound(o.queue),
			serve.WithRetry(3),
		),
	}
	// Resilience controls (docs/RESILIENCE.md), all defaulted: hedging at
	// the tracked p95 with the 5% budget, AIMD + brownout at the documented
	// limits, and the named deterministic chaos plan at scale 1.
	if o.hedge {
		fopts = append(fopts, fleet.WithHedge(fleet.HedgeConfig{}))
	}
	if o.overload {
		fopts = append(fopts, fleet.WithOverloadControl(fleet.OverloadConfig{}))
	}
	plan, err := chaos.ScenarioPlan(o.chaos, o.seed, 1)
	if err != nil {
		return runStats{}, err
	}
	if plan.Enabled() {
		fopts = append(fopts, fleet.WithChaos(chaos.New(plan)))
	}
	// Non-default dispatch wraps every engine's breaker in its own hybrid
	// dispatcher with a per-engine twin, so the dispatch.* counters land in
	// each engine's registry and a rolling reprogram reloads the twin in the
	// same swap. Faulty deployments have no twin (each board's defects are
	// its own): auto mode then pins everything to CIM, and vn mode is
	// rejected by hybrid.New.
	var wrapErr error
	if dmode != hybrid.ModeCIM {
		fopts = append(fopts, fleet.WithWrapBackend(func(id int, b serve.Backend, reg *metrics.Registry) serve.Backend {
			cb, ok := b.(hybrid.CIMBackend)
			if !ok {
				return b
			}
			var twin *vonneumann.Backend
			if !cfg.Faults.Enabled() {
				tw, err := vonneumann.NewBackend(vonneumann.CPU(), vonneumann.DefaultHierarchy(), cfg.Crossbar, net)
				if err != nil {
					wrapErr = fmt.Errorf("engine %d twin: %w", id, err)
					return b
				}
				twin = tw
			}
			d, err := hybrid.New(cb, twin, hybrid.WithMode(dmode), hybrid.WithRegistry(reg))
			if err != nil {
				wrapErr = fmt.Errorf("engine %d dispatcher: %w", id, err)
				return b
			}
			return d
		}))
	}
	f, _, err := fleet.New(cfg, net, fopts...)
	if err != nil {
		return runStats{}, err
	}
	if wrapErr != nil {
		f.Close()
		return runStats{}, wrapErr
	}
	defer f.Close()
	if tel != nil {
		tel.setFleet(f)
	}

	var deadlined, unhealthy, reprogramFailed atomic.Int64
	var energyPJ metrics.Gauge

	// Rolling reprograms spread across the run: every engine swaps, one
	// standby at a time, and reprogramming costs the serving path nothing
	// but the buffer swap. An engine whose swap fails after the breaker's
	// retry budget is counted, not fatal — the breakdown in the bench output
	// is the measurement.
	var swapsDone sync.WaitGroup
	if o.reprogram > 0 {
		swapsDone.Add(1)
		go func() {
			defer swapsDone.Done()
			interval := time.Duration(int64(o.requests)) * time.Microsecond / time.Duration(o.reprogram+1)
			if interval < 2*time.Millisecond {
				interval = 2 * time.Millisecond
			}
			for k := 0; k < o.reprogram; k++ {
				time.Sleep(interval)
				target := netB
				if k%2 == 1 {
					target = net
				}
				rep := f.RollingReprogram(target)
				reprogramFailed.Add(int64(rep.Failed))
			}
		}()
	}

	rep, derr := workloadgen.Drive(driveConfig(o, gen), func(req workloadgen.Request) (workloadgen.Outcome, error) {
		return workloadgen.Fanout(req, func(element int) (workloadgen.Outcome, error) {
			// Each attempt gets its own deadline: the budget covers one
			// trip through the router + engine, not the drive's retry loop.
			ctx, cancel := context.Background(), func() {}
			if o.deadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, o.deadline)
			}
			seq := req.ElementKey(element)
			_, cost, err := f.SubmitSeq(ctx, seq, inputs[seq%uint64(len(inputs))])
			cancel()
			out, ferr := classify(err, &deadlined, &unhealthy)
			if out == workloadgen.OK {
				energyPJ.Add(cost.EnergyPJ)
			}
			return out, ferr
		})
	})
	swapsDone.Wait()
	if derr != nil {
		return runStats{}, derr
	}

	fsnap := f.Registry().Snapshot()
	st := runStats{
		simPS:            f.SimTimePS(),
		energyPJ:         energyPJ.Value(),
		lat:              fsnap.Histograms["fleet.latency_ns"],
		unhealthy:        unhealthy.Load(),
		reprogramFailed:  reprogramFailed.Load(),
		deadlineExceeded: deadlined.Load(),
		hedged:           fsnap.Counters["fleet.hedged"],
		hedgeWon:         fsnap.Counters["fleet.hedge_won"],
		limiterRefused:   fsnap.Counters["fleet.limiter_refused"],
		brownoutShed:     fsnap.Counters["fleet.brownout_shed"],
	}
	st.fromReport(rep)
	var batchCount, batchSum float64
	for _, e := range f.Engines() {
		st.swaps += e.Pair().Swaps()
		snap := e.Registry().Snapshot()
		st.retries += snap.Counters["serve.reprogram_retries"]
		st.dispCIM += snap.Counters["dispatch.cim"]
		st.dispVN += snap.Counters["dispatch.vn"]
		st.dispPinned += snap.Counters["dispatch.pinned_noisy"]
		if h, ok := snap.Histograms["serve.batch_size"]; ok {
			batchCount += float64(h.Count)
			batchSum += h.Sum
		}
	}
	if batchCount > 0 {
		st.avgBatch = batchSum / batchCount
	}
	return st, nil
}

// emit writes one `go test -bench`-style result line: name, iterations,
// ns/op, then custom (value, unit) pairs in testing.B.ReportMetric style.
// The -N suffix mirrors go test's GOMAXPROCS suffix.
func emit(w io.Writer, name string, s runStats, extra map[string]float64, order []string) {
	nsPerOp := float64(s.wall.Nanoseconds()) / float64(s.requests)
	fmt.Fprintf(w, "%s-%d %d %.0f ns/op", name, runtime.GOMAXPROCS(0), s.requests, nsPerOp)
	fmt.Fprintf(w, " %.1f req_per_s", s.wallReqPerSec())
	fmt.Fprintf(w, " %.4g sim_req_per_s", s.simReqPerSec())
	fmt.Fprintf(w, " %.0f p50_ns %.0f p95_ns %.0f p99_ns",
		s.lat.Quantile(0.50), s.lat.Quantile(0.95), s.lat.Quantile(0.99))
	fmt.Fprintf(w, " %.4g pj_per_req", s.energyPJ/float64(s.requests))
	for _, k := range order {
		fmt.Fprintf(w, " %.4g %s", extra[k], k)
	}
	fmt.Fprintln(w)
}

// summary prints the human-readable comparison to stderr so stdout stays
// machine-clean.
func summary(w io.Writer, o options, serial, batch runStats) {
	fmt.Fprintf(w, "cimserve: %d requests, %s, MLP %v (8-bit)\n", o.requests, loadDesc(o), o.layers)
	if serial.requests > 0 {
		fmt.Fprintf(w, "  serial: %8.1f req/s wall   %10.4g req/s simulated   p99 %s\n",
			serial.wallReqPerSec(), serial.simReqPerSec(), time.Duration(serial.lat.Quantile(0.99)))
	}
	if batch.requests > 0 {
		fmt.Fprintf(w, "  batch:  %8.1f req/s wall   %10.4g req/s simulated   p99 %s   avg batch %.1f   swaps %d\n",
			batch.wallReqPerSec(), batch.simReqPerSec(), time.Duration(batch.lat.Quantile(0.99)),
			batch.avgBatch, batch.swaps)
		fmt.Fprintf(w, "  errors: shed %d   unhealthy %d   reprogram failed %d (retries %d)\n",
			batch.shed, batch.unhealthy, batch.reprogramFailed, batch.retries)
		if o.openLoop() {
			fmt.Fprintf(w, "  open loop: offered %.0f req/s   achieved %.0f req/s   late p99 %s   peak in-flight %d\n",
				batch.offeredRPS, batch.achievedRPS, time.Duration(batch.lateP99NS), batch.peakInFlight)
		}
		if o.deadline > 0 || o.hedge || o.overload || (o.chaos != "" && o.chaos != "none") {
			fmt.Fprintf(w, "  resilience: chaos %q   deadline exceeded %d   hedged %d (won %d)   limiter refused %d   brownout shed %d\n",
				o.chaos, batch.deadlineExceeded, batch.hedged, batch.hedgeWon,
				batch.limiterRefused, batch.brownoutShed)
		}
		if o.dispatch != "cim" {
			fmt.Fprintf(w, "  dispatch (%s): cim %d   vn %d   pinned %d\n",
				o.dispatch, batch.dispCIM, batch.dispVN, batch.dispPinned)
		}
	}
	if serial.requests > 0 && batch.simPS > 0 {
		fmt.Fprintf(w, "  simulated speedup: %.2fx   wall speedup: %.2fx\n",
			float64(serial.simPS)/float64(batch.simPS),
			serial.wall.Seconds()/batch.wall.Seconds())
	}
}

// loadDesc names the drive for the summary header.
func loadDesc(o options) string {
	if o.openLoop() {
		if o.generated() {
			return fmt.Sprintf("open loop (%s, %.0f req/s)", o.arrivals, o.rate)
		}
		return fmt.Sprintf("open loop (trace %s)", o.tracefile)
	}
	return fmt.Sprintf("%d clients", o.clients)
}
