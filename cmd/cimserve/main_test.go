package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cimrev/internal/workloadgen"
)

func TestParseLayers(t *testing.T) {
	got, err := parseLayers("256, 128,10")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{256, 128, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseLayers = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "256", "256,0,10", "256,x,10", "256,-1"} {
		if _, err := parseLayers(bad); err == nil {
			t.Errorf("parseLayers(%q) accepted", bad)
		}
	}
}

// TestErrorLineNamesProgramOnce: a flag error reaches the terminal as
// "cimserve: -flag ...", whether validate or parseLayers built it.
func TestErrorLineNamesProgramOnce(t *testing.T) {
	_, layersErr := parseLayers("256")
	for _, err := range []error{options{}.validate(), layersErr} {
		if err == nil {
			t.Fatal("bad flags accepted")
		}
		line := errorLine(err)
		if !strings.HasPrefix(line, "cimserve: -") || strings.Count(line, "cimserve:") != 1 {
			t.Errorf("fatal line %q, want the program's name once, then the flag", line)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	good := options{clients: 4, requests: 8, batch: 2,
		queue: 16, mode: "both", layers: []int{16, 8}, engines: 1, policy: "round-robin", dispatch: "cim"}
	if err := good.validate(); err != nil {
		t.Fatalf("good options rejected: %v", err)
	}
	mut := []func(*options){
		func(o *options) { o.clients = 0 },
		func(o *options) { o.requests = 0 },
		func(o *options) { o.batch = 0 },
		func(o *options) { o.deadline = -time.Millisecond },
		func(o *options) { o.queue = 0 },
		func(o *options) { o.queue = o.clients - 1 },
		func(o *options) { o.mode = "turbo" },
		func(o *options) { o.reprogram = -1 },
		func(o *options) { o.stuck = -0.1 },
		func(o *options) { o.stuck = 1 },
		func(o *options) { o.spares = -1 },
		func(o *options) { o.spares = 1 }, // spares without -stuck
		func(o *options) { o.engines = 0 },
		func(o *options) { o.policy = "random" },
		func(o *options) { o.dispatch = "gpu" },
		// Hedging needs a second engine to hedge onto, and a chaos scenario
		// outside the catalog is rejected up front.
		func(o *options) { o.hedge = true },
		func(o *options) { o.chaos = "meteor" },
	}
	for i, m := range mut {
		o := good
		m(&o)
		if err := o.validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, o)
		}
	}
	// The AIMD limiter and the chaos wrap are per engine: both work on a
	// fleet of one.
	for _, m := range []func(*options){
		func(o *options) { o.overload = true },
		func(o *options) { o.chaos = "straggler" },
		func(o *options) { o.engines = 2; o.hedge = true },
		func(o *options) { o.stuck = 0.01; o.spares = 1 },
	} {
		o := good
		m(&o)
		if err := o.validate(); err != nil {
			t.Errorf("%+v rejected: %v", o, err)
		}
	}
}

// TestRunEndToEnd drives a miniature closed loop through both modes (with
// one shadow swap) and checks the bench-format output.
func TestRunEndToEnd(t *testing.T) {
	var sb strings.Builder
	o := options{
		clients:   4,
		requests:  32,
		batch:     4,
		queue:     64,
		mode:      "both",
		layers:    []int{32, 24, 10},
		seed:      7,
		engines:   1,
		policy:    "round-robin",
		dispatch:  "cim",
		reprogram: 1,
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"goos:", "pkg: cimrev/cmd/cimserve",
		"BenchmarkServe/serial_c4-", "BenchmarkServe/batch_c4_b4-",
		"ns/op", "req_per_s", "sim_req_per_s",
		"p50_ns", "p95_ns", "p99_ns", "pj_per_req",
		"avg_batch", "swaps", "sim_speedup", "wall_speedup",
		"shed", "unhealthy", "reprogram_failed", "reprogram_retries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Both result lines must carry the request count as iterations.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "BenchmarkServe/") && !strings.Contains(line, " 32 ") {
			t.Errorf("result line missing iteration count 32: %q", line)
		}
	}
	// Fault-free runs report a clean error breakdown.
	for _, zero := range []string{"0 shed", "0 unhealthy", "0 reprogram_failed", "0 reprogram_retries"} {
		if !strings.Contains(out, zero) {
			t.Errorf("fault-free run missing %q:\n%s", zero, out)
		}
	}
}

// TestRunUnhealthySheds injects stuck cells past the (empty) spare budget
// and requests a swap on a fleet of one: the standby cannot be repaired, the
// only engine's breaker trips, the router has nowhere to fail over to, and
// the error breakdown shows unhealthy sheds and the failed reprogram — but
// the run itself completes. The drive is open-loop so that its length is
// the schedule's (~200ms), not the server's speed: a closed loop can
// finish before the swap's retries have run out and the breaker trips.
func TestRunUnhealthySheds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	o := options{
		clients:   4,
		requests:  2048,
		arrivals:  "poisson",
		rate:      10_000,
		batch:     4,
		queue:     64,
		mode:      "batch",
		layers:    []int{32, 24, 10},
		seed:      7,
		engines:   1,
		policy:    "round-robin",
		dispatch:  "cim",
		reprogram: 1,
		stuck:     0.05,
		spares:    0,
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1 reprogram_failed") {
		t.Errorf("failed swap not counted:\n%s", out)
	}
	if strings.Contains(out, " 0 unhealthy") {
		t.Errorf("tripped breaker shed no requests:\n%s", out)
	}
	if !strings.Contains(out, "0 swaps") {
		t.Errorf("unhealthy standby must not be swapped in:\n%s", out)
	}
}

// TestRunFleetEndToEnd drives a multi-engine fleet (-engines 4) with one rolling
// reprogram mid-run and checks the bench line carries the fleet name and
// the engines metric, with a clean error breakdown (zero downtime).
func TestRunFleetEndToEnd(t *testing.T) {
	var sb strings.Builder
	o := options{
		clients:   8,
		requests:  256,
		batch:     8,
		queue:     64,
		mode:      "batch",
		layers:    []int{32, 24, 10},
		seed:      7,
		dispatch:  "cim",
		reprogram: 1,
		engines:   4,
		policy:    "least-loaded",
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkServe/fleet_c8_b8_e4_least_loaded-",
		"4 engines",
		"0 shed", "0 unhealthy", "0 reprogram_failed",
		"4 swaps", // one rolling reprogram swaps every engine once
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q:\n%s", want, out)
		}
	}
}

// benchKeys returns the metric names of the BenchmarkServe/<prefix> line in
// out, in order, and the value printed for each.
func benchKeys(t *testing.T, out, prefix string) ([]string, map[string]string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "BenchmarkServe/"+prefix) {
			continue
		}
		fields := strings.Fields(line)[2:] // name, iterations, then (value, unit) pairs
		var keys []string
		vals := map[string]string{}
		for i := 0; i+1 < len(fields); i += 2 {
			keys = append(keys, fields[i+1])
			vals[fields[i+1]] = fields[i]
		}
		return keys, vals
	}
	t.Fatalf("no BenchmarkServe/%s line in:\n%s", prefix, out)
	return nil, nil
}

// TestRunOneStackAtEveryFleetSize pins the tentpole at the CLI: -engines 1
// and -engines 2 run the same stack, so their bench lines carry the same
// keys in the same order apart from the engines metric (and the batch_* vs
// fleet_* name), with the optional groups switched on, and auto dispatch
// routes at both sizes. It also pins the -engines 1 energy figure to what
// the deleted single-engine stack printed for the same flags at seed 1
// (deterministic at the line's %.4g).
func TestRunOneStackAtEveryFleetSize(t *testing.T) {
	o := options{
		clients:  4,
		requests: 64,
		batch:    4,
		deadline: 5 * time.Second,
		queue:    64,
		mode:     "batch",
		layers:   []int{32, 24, 10},
		seed:     1,
		policy:   "round-robin",
		dispatch: "auto",
		overload: true,
		chaos:    "none",
	}
	lines := map[int][]string{}
	for _, engines := range []int{1, 2} {
		o.engines = engines
		if err := o.validate(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run(&sb, o); err != nil {
			t.Fatal(err)
		}
		prefix := "batch_c4_b4-"
		if engines > 1 {
			prefix = "fleet_c4_b4_e2_round_robin-"
		}
		keys, vals := benchKeys(t, sb.String(), prefix)
		lines[engines] = keys
		// The default config is noise- and fault-free, so every engine has
		// a twin: auto dispatch pins nothing and routes every request.
		cim, _ := strconv.Atoi(vals["dispatch_cim"])
		vn, _ := strconv.Atoi(vals["dispatch_vn"])
		if vals["dispatch_pinned_noisy"] != "0" || cim+vn != o.requests {
			t.Errorf("-engines %d auto dispatch: cim %d + vn %d of %d requests, pinned %s",
				engines, cim, vn, o.requests, vals["dispatch_pinned_noisy"])
		}
	}
	one, two := lines[1], lines[2]
	if len(two) == 0 || two[len(two)-1] != "engines" {
		t.Fatalf("-engines 2 line does not end with the engines metric: %v", two)
	}
	if got, want := strings.Join(one, " "), strings.Join(two[:len(two)-1], " "); got != want {
		t.Errorf("bench keys differ beyond engines:\n -engines 1: %s\n -engines 2: %s", got, want)
	}

	// Energy on the crossbar path: the parent commit's runBatch printed
	// "1880 pj_per_req" for these flags (-dispatch cim, no resilience).
	o.engines, o.dispatch, o.overload, o.deadline = 1, "cim", false, 0
	var sb strings.Builder
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	if _, vals := benchKeys(t, sb.String(), "batch_c4_b4-"); vals["pj_per_req"] != "1880" {
		t.Errorf("-engines 1 seed 1 pj_per_req = %s, want the single-engine stack's 1880", vals["pj_per_req"])
	}
}

// TestRunFleetResilience drives fleet mode with every resilience flag on:
// a straggler chaos plan on engine 0, hedging against it, overload
// control armed, and a generous per-request deadline. The run must
// complete with no lost requests and the bench line must carry the new
// resilience metrics. (Whether hedges actually fire here depends on the
// host's timer floor vs the 2ms stall — the deterministic hedge-fires
// coverage lives in internal/fleet/resilience_test.go.)
func TestRunFleetResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	o := options{
		clients:  8,
		requests: 192,
		batch:    8,
		// Far above the straggler's 2ms stall: the deadline path is
		// exercised (every request carries a budget) without flaky sheds.
		deadline: 5 * time.Second,
		queue:    64,
		mode:     "batch",
		layers:   []int{32, 24, 10},
		seed:     7,
		dispatch: "cim",
		engines:  3,
		policy:   "least-loaded",
		hedge:    true,
		overload: true,
		chaos:    "straggler",
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkServe/fleet_c8_b8_e3_least_loaded-",
		"deadline_exceeded", "hedged", "hedge_won",
		"limiter_refused", "brownout_shed",
		"0 deadline_exceeded", // 5s budget: nothing expires
		"0 unhealthy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("resilience output missing %q:\n%s", want, out)
		}
	}
}

// TestOptionsValidateLoadgen: the workloadgen flags are cross-checked —
// generators need a rate, traces need a file, open loops need -mode
// batch, and recording needs a generator.
func TestOptionsValidateLoadgen(t *testing.T) {
	good := options{clients: 4, requests: 8, batch: 2,
		queue: 16, mode: "batch", layers: []int{16, 8}, engines: 1,
		policy: "round-robin", dispatch: "cim",
		arrivals: "poisson", rate: 1000, mix: "default"}
	if err := good.validate(); err != nil {
		t.Fatalf("good open-loop options rejected: %v", err)
	}
	mut := []func(*options){
		func(o *options) { o.arrivals = "lognormal" },
		func(o *options) { o.rate = 0 },
		func(o *options) { o.rate = -5 },
		func(o *options) { o.mode = "both" },   // open loop is batch-only
		func(o *options) { o.mode = "serial" }, // ditto
		func(o *options) { o.mix = "heavy" },
		func(o *options) { o.arrivals = "trace" },                     // no -tracefile
		func(o *options) { o.arrivals = "closed"; o.tracefile = "x" }, // file without trace mode
		func(o *options) { o.arrivals = "closed"; o.record = "x" },    // nothing to record
		func(o *options) { o.arrivals = "trace"; o.record = "x" },     // a trace is already recorded
	}
	for i, m := range mut {
		o := good
		m(&o)
		if err := o.validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, o)
		}
	}
	// A trace replay carries its own rate, so -rate stays zero.
	o := good
	o.arrivals, o.rate, o.tracefile = "trace", 0, "some.json"
	if err := o.validate(); err != nil {
		t.Errorf("trace options rejected: %v", err)
	}
}

// TestRunOpenLoopEndToEnd drives the batch pipeline from a Poisson
// schedule with the default class mix: the bench line is named for the
// arrival process (clients don't exist in an open loop) and carries the
// open-loop metrics.
func TestRunOpenLoopEndToEnd(t *testing.T) {
	var sb strings.Builder
	o := options{
		clients:  4, // ignored by the open loop but still validated
		requests: 96,
		batch:    4,
		queue:    64,
		mode:     "batch",
		layers:   []int{32, 24, 10},
		seed:     7,
		engines:  1,
		policy:   "round-robin",
		dispatch: "cim",
		arrivals: "poisson",
		rate:     20_000,
		mix:      "default",
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkServe/batch_poisson_b4-",
		"offered_rps", "achieved_rps", "late_p50_ns", "late_p99_ns", "peak_inflight",
		"2e+04 offered_rps", // the schedule's nominal rate, not the measured one
	} {
		if !strings.Contains(out, want) {
			t.Errorf("open-loop output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "_c4_") {
		t.Errorf("open-loop bench name still carries a client count:\n%s", out)
	}
}

// TestNoiseKeys pins the one noise-key rule under both -mix settings: the
// drive cimserve runs fans every request out to its class batch, element j
// of request seq is submitted under workloadgen's ElementKey, seq*8 + j, and
// no two submissions of a drive share a key. (A mix-less drive once keyed a
// request by its bare seq, and under a mix batch-1 requests kept theirs
// beside batch-8 elements keyed seq*8 + j, so request 8 and element 0 of
// request 1 collided.)
func TestNoiseKeys(t *testing.T) {
	for _, mix := range []string{"none", "default"} {
		o := options{arrivals: "closed", mix: mix, seed: 1, requests: 256, clients: 4}
		gen, err := buildLoad(o)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		seen := map[uint64]workloadgen.Request{}
		_, err = workloadgen.Drive(driveConfig(o, gen), func(req workloadgen.Request) (workloadgen.Outcome, error) {
			return workloadgen.Fanout(req, func(element int) (workloadgen.Outcome, error) {
				key := req.ElementKey(element)
				mu.Lock()
				defer mu.Unlock()
				if key != req.Seq*workloadgen.MaxClassBatch+uint64(element) {
					t.Errorf("-mix %s: request %d element %d keyed %d", mix, req.Seq, element, key)
				}
				if prev, dup := seen[key]; dup {
					t.Errorf("-mix %s: key %d submitted by requests %d and %d", mix, key, prev.Seq, req.Seq)
				}
				seen[key] = req
				return workloadgen.OK, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) < o.requests {
			t.Errorf("-mix %s: %d keys for %d requests", mix, len(seen), o.requests)
		}
	}
}

// TestRunTraceRecordReplay round-trips a schedule through the CLI path:
// one run records a Poisson schedule plus classes to a JSON trace, a
// second replays it with -arrivals trace and reports under the trace
// name.
func TestRunTraceRecordReplay(t *testing.T) {
	tracefile := filepath.Join(t.TempDir(), "arrivals.json")
	o := options{
		clients:  4,
		requests: 64,
		batch:    4,
		queue:    64,
		mode:     "batch",
		layers:   []int{32, 24, 10},
		seed:     7,
		engines:  1,
		policy:   "round-robin",
		dispatch: "cim",
		arrivals: "poisson",
		rate:     20_000,
		mix:      "default",
		record:   tracefile,
	}
	var sb strings.Builder
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(tracefile)
	if err != nil {
		t.Fatalf("recorded trace missing: %v", err)
	}
	for _, want := range []string{`"source": "poisson"`, `"classes"`} {
		if !strings.Contains(string(tr), want) {
			t.Errorf("trace file missing %q:\n%s", want, tr)
		}
	}

	o.arrivals, o.rate, o.record, o.tracefile = "trace", 0, "", tracefile
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "BenchmarkServe/batch_trace_b4-") {
		t.Errorf("replay output not named for the trace:\n%s", sb.String())
	}
}
