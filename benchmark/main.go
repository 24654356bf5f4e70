// Command benchmark is the repository's benchmark: four workloads over the
// simulator and its serving spine, end-to-end metrics from an untraced
// run, per-layer metrics from a traced one, outputs checked against a
// fresh single-engine oracle in the same command. BENCHMARK.json declares
// what it reports; README.md says why.
//
//	bash benchmark/run.sh --workload sim_bitserial_b1 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --out .bench_build/results.json
//	bash benchmark/run.sh compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cimrev/internal/parallel"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the line the driver reads, plus what
// the results file keeps beside it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"output_digest"`
	Metrics   map[string]metric `json:"metrics"`
	// Support says how many samples stand behind the quantiles and how
	// fast the host ran (host_speed, the factor applied to the
	// compute-bound metrics: the value as it ran is the value over it).
	Support map[string]float64 `json:"support,omitempty"`
	// Series keeps the raw timings behind setup_s.
	Series map[string][]float64 `json:"series,omitempty"`
	// Ladder is the traced run's whole ladder, bottom rung first.
	Ladder []rungReport `json:"ladder,omitempty"`
}

// resultsFile is what --out appends to: runs of one commit on one host.
type resultsFile struct {
	Host host     `json:"host"`
	Runs []result `json:"runs"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Parallel   int    `json:"parallel_width"`
	GoVersion  string `json:"go_version"`
}

// runOptions scale a run; the smoke tests shrink them.
type runOptions struct {
	seed    int64
	seconds float64
	// setupReps and setupSeconds bound the constructions behind setup_s
	// from below: at least so many counted, over at least so long.
	setupReps    int
	setupSeconds float64
	// spans, when set, is the path prefix the traced run of an open-loop
	// workload writes its client and backend spans under.
	spans string
}

// runUntraced is the --trace 0 run: set-up timed again and again, then
// one untraced timed phase, folded into the end-to-end metrics.
func (s spec) runUntraced(o runOptions) (*result, error) {
	sys, setup, err := s.timeSetup(o.seed, o.setupReps, o.setupSeconds)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	p, err := s.runPhase(sys, o.seed, o.seconds, false)
	if err != nil {
		return nil, err
	}
	_, b50 := windowQuantile(p.lat, p.span, 0.50)
	r := s.result(o, 0, p, s.endToEndValues(p, setup.atReference()), endToEnd)
	r.Support = map[string]float64{
		"lat_samples":           float64(len(p.lat)),
		"lat_p50_beyond_window": float64(b50),
		"oracle_checked":        float64(p.checked),
		"inferences":            float64(p.inferences),
		"host_speed":            p.ref.speed(s.hostShare),
		"ref_kernel_us":         p.ref.kernelNS() / 1e3,
		"ref_samples":           float64(len(p.ref.samples)),
	}
	r.Series = map[string][]float64{"setup_s": setup.seconds, "setup_ref_ns": setup.refNS}
	return r, nil
}

func (s spec) runPhase(sys *system, seed int64, seconds float64, traced bool) (*phase, error) {
	if s.open {
		return s.runOpen(sys, seed, seconds, traced)
	}
	return s.runClosed(sys, seconds)
}

// runTraced is the --trace 1 run, a third of the time each: the workload
// untraced, the workload again with the benchmark's span recorders on,
// and the ladder. The difference between the first two is the tracing
// overhead.
func (s spec) runTraced(o runOptions) (*result, error) {
	third := o.seconds / 3
	m := make(map[string]float64, len(perLayer))

	plain, err := s.build(o.seed)
	if err != nil {
		return nil, err
	}
	untraced, err := s.runPhase(plain, o.seed, third, false)
	plain.close()
	if err != nil {
		return nil, err
	}

	rec := &flushRecorder{}
	sys, err := s.build(o.seed, rec.wrap())
	if err != nil {
		return nil, err
	}
	defer sys.close()
	traced, err := s.runPhase(sys, o.seed, third, true)
	if err != nil {
		return nil, err
	}
	if s.open {
		spanValues(s, traced, rec.spans, m)
	}
	phaseValues(s, untraced, traced, m)

	lad, err := s.newLadder(sys)
	if err != nil {
		return nil, err
	}
	defer lad.close()
	if err := lad.run(third); err != nil {
		return nil, err
	}
	ladderValues(lad, m)
	if o.spans != "" && s.open {
		if err := writeSpans(o.spans+s.name+".json", traced, rec.spans); err != nil {
			return nil, err
		}
	}

	r := s.result(o, 1, traced, m, perLayer)
	r.Ladder = lad.report()
	r.Attempted += untraced.attempted
	r.Failed += untraced.failed
	r.Correct = r.Correct && untraced.failed == 0
	n := len(traced.lat)
	_, b95 := windowQuantile(traced.lat, traced.span, 0.95)
	r.Support = map[string]float64{
		"lat_samples":           float64(n),
		"lat_p95_beyond_window": float64(b95),
		"lat_p99_beyond":        float64(n - rank(n, 0.99)),
		"lat_p999_beyond":       float64(n - rank(n, 0.999)),
		"backend_flushes":       float64(len(rec.spans)),
		"ladder_iterations":     float64(len(lad.rungs[0].nsPerReq)),
	}
	return r, nil
}

// result names the values by the declared metrics: exactly those, each
// with its unit.
func (s spec) result(o runOptions, trace int, p *phase, values map[string]float64, defs []metricDef) *result {
	r := &result{
		Workload: s.name, Seed: o.seed, Seconds: o.seconds, Trace: trace,
		Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Digest: p.digest,
		Metrics: make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// print writes every metric by name with its unit, then the one JSON
// object the driver reads as the last line.
func (r *result) print(defs []metricDef) error {
	fmt.Printf("# %s seed=%d seconds=%g trace=%d digest=%s\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Digest)
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendResults adds runs to the results file at path, creating it.
func appendResults(path string, runs []result) error {
	var rf resultsFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rf.Host = host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallel:   parallel.Width(),
		GoVersion:  runtime.Version(),
	}
	rf.Runs = append(rf.Runs, runs...)
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func run() error {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	workload := flag.String("workload", "all", "workload name, or all: every workload, untraced then traced")
	seed := flag.Int64("seed", 1, "keys the inputs, the arrival schedule and the class mix")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (ignored with -workload all, which does both)")
	out := flag.String("out", "", "append the runs to this results file")
	spans := flag.String("spans", "", "write the traced runs' client and backend spans to <prefix><workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}

	// Load discipline: at most four cores, the worker pool left at its
	// default (which follows GOMAXPROCS), no clients beyond the workload's.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	o := runOptions{seed: *seed, seconds: *seconds, setupReps: setupReps, setupSeconds: setupSeconds, spans: *spans}
	type job struct {
		s     spec
		trace int
	}
	var jobs []job
	if *workload == "all" {
		for _, s := range specs {
			jobs = append(jobs, job{s, 0}, job{s, 1})
		}
	} else {
		s, err := specByName(*workload)
		if err != nil {
			return err
		}
		jobs = []job{{s, *trace}}
	}
	var runs []result
	correct := true
	for _, j := range jobs {
		t0 := time.Now()
		var r *result
		var err error
		defs := endToEnd
		if j.trace == 1 {
			defs = perLayer
			r, err = j.s.runTraced(o)
		} else {
			r, err = j.s.runUntraced(o)
		}
		if err != nil {
			return err
		}
		if err := r.print(defs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d took %.1fs\n", j.s.name, j.trace, time.Since(t0).Seconds())
		runs = append(runs, *r)
		correct = correct && r.Correct
	}
	if *out != "" {
		if err := appendResults(*out, runs); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("outputs incorrect: see failed and the oracle counts above")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
