// Command cimbench regenerates every evaluation artifact of "Computing
// In-Memory, Revisited": Fig 2, Table 1, Table 2, and the Section VI Dot
// Product Engine results.
//
// Usage:
//
//	cimbench                  # run everything
//	cimbench -exp fig2        # one experiment: fig2, table1, table2,
//	                          # secvi, scale, adc, noise, parallelism, fault
//	cimbench -sizes 512,4096  # layer sizes for the Section VI sweep
//	cimbench -parallel 8      # simulation worker-pool width (wall-clock
//	                          # only; 1 = serial, 0 = GOMAXPROCS default)
//	cimbench -exp fault -format json
//	                          # any experiment as one JSON document
//	                          # {experiment, generated_at, result}: result is
//	                          # encoding/json over the same struct the text
//	                          # table is rendered from (make bench-json
//	                          # archives six of them as BENCH_<exp>.json)
//	cimbench -exp fleet -engines 1,2,4,8
//	                          # cluster-scale serving sweep: routing policy x
//	                          # fleet size, rolling reprogram mid-run
//	cimbench -exp hybrid      # CIM-vs-CPU crossover sweep + mixed-workload
//	                          # dispatch comparison (gated)
//	cimbench -exp chaos       # SLO-retention chaos sweep: scenario x hedging
//	                          # grid against the fault-free oracle (gated)
//	cimbench -exp capacity -slo 25ms
//	                          # open-loop SLO capacity sweep: fleet size x
//	                          # offered rate grid, rated capacity per size,
//	                          # closed-vs-open comparison (gated)
//	cimbench -trace out.json  # run the traced reference workload and write
//	                          # a Chrome trace_event file (chrome://tracing,
//	                          # ui.perfetto.dev)
//	cimbench -attr            # same workload, print the per-span simulated
//	                          # cost-attribution table
//
// Experiments are rows of a single registry table (the experiment type
// below): name, -exp all membership, and runner live in one place, and the
// -exp usage string and error text derive from it. A result that has an
// acceptance gate carries it as a Check method (hybrid, chaos, capacity);
// cimbench writes the result first and runs the gate second, so a failing
// sweep still leaves its table or JSON behind, then exits non-zero with
// the gate's message on stderr.
//
// Simulated results are bit-identical at every -parallel width: the flag
// only controls how many OS threads chew through the independent tiles,
// batch items, and sweep points (see docs/PARALLELISM.md). That includes
// the one experiment that draws analog read noise, noise (adc sweeps the
// converter at ReadNoise 0 and draws none, so a change of sampler leaves
// its table alone): read noise is counter-based — every draw is a pure
// function of (seed, inference, stage, block, position), a ziggurat sample
// over that position's own word — so the noisy sweep fans out like the
// noise-free ones instead of forcing itself serial. Selected experiments
// also run concurrently with each other, with output printed in the
// canonical order. The wall-clock experiments (obs, fleet, chaos,
// capacity) are marked solo in the registry: they run only when selected
// explicitly, never under -exp all, where contention with the other
// experiments would measure noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"cimrev/internal/energy"
	"cimrev/internal/experiments"
	"cimrev/internal/fleet"
	"cimrev/internal/obs"
	"cimrev/internal/parallel"
)

// formatter is the common shape of every experiment result.
type formatter interface{ Format() string }

// checker is the additional shape of results with an acceptance gate.
type checker interface{ Check() error }

// params carries the parsed flag values into experiment runners.
type params struct {
	sizes, boards, engines []int
	// enginesSet records whether -engines was given explicitly; the
	// capacity sweep keeps its own default fleet sizes otherwise.
	enginesSet bool
	rates      []float64
	slo        time.Duration
}

// experiment is one registry row: the single place an experiment's name,
// -exp all membership, and runner are declared.
type experiment struct {
	name string
	// solo experiments measure wall-clock behavior (client goroutines,
	// timed sleeps, latency quantiles); they run only when selected
	// explicitly, never as part of -exp all.
	solo bool
	run  func(p params) (formatter, error)
}

// registry is the experiment table, in canonical output order.
var registry = []experiment{
	{name: "fig2", run: func(params) (formatter, error) { return experiments.Fig2() }},
	{name: "table1", run: func(params) (formatter, error) { return experiments.Table1() }},
	{name: "table2", run: func(params) (formatter, error) { return experiments.Table2() }},
	{name: "secvi", run: func(p params) (formatter, error) { return experiments.SecVI(p.sizes) }},
	{name: "scale", run: func(p params) (formatter, error) { return experiments.Scale(p.boards, 512, 64) }},
	{name: "adc", run: func(params) (formatter, error) {
		return experiments.ADCAblation([]int{2, 4, 6, 8, 10})
	}},
	{name: "noise", run: func(params) (formatter, error) {
		return experiments.NoiseAblation([]float64{0, 0.01, 0.02, 0.05, 0.1, 0.3})
	}},
	{name: "parallelism", run: func(params) (formatter, error) {
		return experiments.ParallelismSweep(experiments.ParallelismPoints)
	}},
	{name: "fault", run: func(params) (formatter, error) {
		return experiments.FaultSweep(
			[]float64{0, 0.002, 0.005, 0.01, 0.02},
			[]int{0, 4, 8, 16},
		)
	}},
	{name: "obs", solo: true, run: func(params) (formatter, error) {
		return experiments.ObsOverhead()
	}},
	{name: "hybrid", run: func(params) (formatter, error) {
		return experiments.HybridSweep(
			[]int{16, 32, 64, 128, 256, 512},
			[]int{1, 8, 64},
			24,
		)
	}},
	{name: "fleet", solo: true, run: func(p params) (formatter, error) {
		return experiments.FleetSweep(p.engines, fleet.PolicyNames(), 32, 2000)
	}},
	{name: "chaos", solo: true, run: func(params) (formatter, error) {
		return experiments.ChaosSweep(nil, 512)
	}},
	{name: "capacity", solo: true, run: func(p params) (formatter, error) {
		cfg := experiments.CapacityConfig{RatesRPS: p.rates, SLO: p.slo}
		if p.enginesSet {
			cfg.Engines = p.engines
		}
		return experiments.CapacitySweep(cfg)
	}},
}

// expNames is the -exp vocabulary, derived from the registry.
func expNames() []string {
	names := make([]string, 0, len(registry)+1)
	names = append(names, "all")
	for _, e := range registry {
		names = append(names, e.name)
	}
	return names
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(expNames(), ", "))
	sizes := flag.String("sizes", "512,1024,2048,4096", "comma-separated layer sizes for the Section VI sweep")
	boards := flag.String("boards", "1,2,4,8,16", "comma-separated board counts for the scale experiment")
	engines := flag.String("engines", "1,2,4,8", "comma-separated fleet sizes for the fleet serving and capacity sweeps")
	rates := flag.String("rates", "", "comma-separated offered rates (req/s) for the capacity sweep (empty = built-in ladder)")
	slo := flag.Duration("slo", experiments.DefaultSLO, "p99 service-latency SLO for the capacity sweep")
	workers := flag.Int("parallel", 0, "simulation worker-pool width: N goroutines, 1 = serial, 0 = GOMAXPROCS (results are identical at any width)")
	format := flag.String("format", "text", "output format: text (human tables) or json (one {experiment, generated_at, result} document per experiment)")
	trace := flag.String("trace", "", "run the traced reference workload and write Chrome trace_event JSON to this file")
	attr := flag.Bool("attr", false, "run the traced reference workload and print the cost-attribution table")
	flag.Parse()

	parallel.SetWidth(*workers)
	if *trace != "" || *attr {
		if err := runTrace(*trace, *attr); err != nil {
			fmt.Fprintln(os.Stderr, "cimbench:", err)
			os.Exit(1)
		}
		return
	}
	p, err := parseParams(*sizes, *boards, *engines, *rates, *slo)
	if err == nil {
		p.enginesSet = flagWasSet("engines")
		err = run(os.Stdout, *exp, *format, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cimbench:", err)
		os.Exit(1)
	}
}

// flagWasSet reports whether the named flag appeared on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseParams converts the list-valued flags.
func parseParams(sizeList, boardList, engineList, rateList string, slo time.Duration) (params, error) {
	var p params
	var err error
	if p.sizes, err = parseInts(sizeList); err != nil {
		return p, fmt.Errorf("parse -sizes: %w", err)
	}
	if p.boards, err = parseInts(boardList); err != nil {
		return p, fmt.Errorf("parse -boards: %w", err)
	}
	if p.engines, err = parseInts(engineList); err != nil {
		return p, fmt.Errorf("parse -engines: %w", err)
	}
	if rateList != "" {
		if p.rates, err = parseFloats(rateList); err != nil {
			return p, fmt.Errorf("parse -rates: %w", err)
		}
	}
	p.slo = slo
	return p, nil
}

// runTrace executes the traced reference workload (experiments.TraceRun)
// and emits the requested artifacts: a Chrome trace file, the attribution
// table, or both. The bit-identity summary always prints — it is the
// trace's correctness witness (SumRoots == untraced total).
func runTrace(traceFile string, attr bool) error {
	res, err := experiments.TraceRun()
	if err != nil {
		return err
	}
	if !res.BitIdentical() {
		return fmt.Errorf("trace cost fold %+v != untraced total %+v", res.Traced, res.Untraced)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, res.Spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cimbench: wrote %d spans to %s\n", len(res.Spans), traceFile)
	}
	if attr {
		fmt.Print(res.Format())
	} else {
		fmt.Printf("trace: %d spans, SumRoots bit-identical to untraced total (%s, %s)\n",
			len(res.Spans),
			energy.FormatLatency(res.Traced.LatencyPS), energy.FormatEnergy(res.Traced.EnergyPJ))
	}
	return nil
}

// run selects registry rows for exp, executes them across the worker
// pool, and writes their results to w in canonical order — text tables, or
// one JSON document per experiment. Gates run last: the error joins every
// failed Check, after everything has been written.
func run(w io.Writer, exp, format string, p params) error {
	if format != "text" && format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", format)
	}
	selected := registry[:0:0]
	for _, e := range registry {
		if exp == e.name || (exp == "all" && !e.solo) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, strings.Join(expNames(), ", "))
	}

	results, err := parallel.MapErr(len(selected), func(i int) (formatter, error) {
		return selected[i].run(p)
	})
	if err != nil {
		return err
	}
	generatedAt := time.Now().UTC().Format(time.RFC3339)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var gates []error
	for i, res := range results {
		if format == "json" {
			err = enc.Encode(struct {
				Experiment  string    `json:"experiment"`
				GeneratedAt string    `json:"generated_at"`
				Result      formatter `json:"result"`
			}{selected[i].name, generatedAt, res})
		} else {
			_, err = fmt.Fprintln(w, res.Format())
		}
		if err != nil {
			return err
		}
		if c, ok := res.(checker); ok {
			gates = append(gates, c.Check())
		}
	}
	return errors.Join(gates...)
}

func parseInts(list string) ([]int, error) {
	parts := strings.Split(list, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(list string) ([]float64, error) {
	parts := strings.Split(list, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
